// The T_Chimera database: classes + objects + the model clock.
//
// Database is the owner of every ClassDef and Object, enforces the model's
// rules on every mutation (typing of attribute values per Definition 3.5,
// Rule 6.1 refinement at class definition, hierarchy confinement of
// migrations per Invariant 6.2), and exposes the formal functions of
// Table 3:
//
//   T^-          types::TMinus (type layer)
//   pi           Database::Pi
//   type         Database::StructuralTypeOf
//   h_type       Database::HistoricalTypeOf
//   s_type       Database::StaticTypeOf
//   h_state      Database::HStateOf
//   s_state      Database::SStateOf
//   o_lifespan   Database::OLifespan
//   m_lifespan   Database::MLifespan   (the paper also calls it c_lifespan)
//   ref          Database::Ref
//   snapshot     Database::SnapshotOf
//
// Database implements ExtentProvider, and its IsaGraph implements
// IsaProvider, so a Database can be handed directly to the typing layer
// (typing_context()).
#ifndef TCHIMERA_CORE_DB_DATABASE_H_
#define TCHIMERA_CORE_DB_DATABASE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/db/index.h"
#include "core/object/object.h"
#include "core/schema/class_def.h"
#include "core/schema/isa_graph.h"
#include "core/temporal/clock.h"
#include "core/values/typing.h"

namespace tchimera {

// What a writer touched since the footprint was last taken — the unit of
// commit-time validation for optimistic multi-writer concurrency
// (core/db/versioned_db.h). Recorded by the mutable accessors, so it
// covers exactly the slots whose COW clones a commit would publish.
struct WriteFootprint {
  // Objects cloned for mutation or newly created (slot-level granularity:
  // two writers touching different oids never conflict, regardless of
  // shard collisions).
  std::set<uint64_t> oids;
  // Objects whose lifespan this writer closed (DeleteObject) — tracked
  // separately because referential integrity (Definition 5.6) must be
  // re-validated against objects a *concurrent* committer touched.
  std::set<uint64_t> deleted_oids;
  // Classes cloned for mutation (membership rows, c-attribute updates).
  std::set<std::string> classes;
  // Schema-shape changes (define/drop/restore): conflict with everything —
  // they rewrite the ISA graph and class table spine.
  bool schema_changed = false;
  // The clock moved. Journal replay re-runs statements in commit order,
  // so a clock move must serialize against every concurrent commit.
  bool clock_advanced = false;
  // An oid was allocated from next_oid_. Two allocating transactions must
  // conflict or replay would assign different oids than the live run.
  bool oid_allocated = false;
  // Sledgehammer: treat the write set as "everything" (quarantine and
  // other surgery that scans or rewrites arbitrary state).
  bool all = false;

  bool empty() const {
    return oids.empty() && deleted_oids.empty() && classes.empty() &&
           !schema_changed && !clock_advanced && !oid_allocated && !all;
  }
};

// Database is copy-on-write: the copy constructor shares the class
// table, the ISA graph, the index table and the object spine with the
// source — a handful of refcount increments, independent of
// the number of shards, classes or objects — and gives BOTH sides fresh
// COW epochs, so whichever side mutates first clones exactly the
// structures on the path to the entities it touches (structural sharing
// of the rest). This is what makes MVCC writes cheap: VersionedDatabase
// hands every writer a copy of the published head, the writer clones
// only what it writes, and the commit publishes that copy.
//
// The sharing protocol is single-writer: concurrent READS of two copies
// are always safe (shared entities are never mutated in place once a
// copy exists — the epoch check forces a clone first), but each copy
// must only be MUTATED by one thread at a time. VersionedDatabase
// enforces this by giving each writer its own copy and never mutating a
// published one.
class Database final : public ExtentProvider {
 public:
  Database();
  // The COW copy: shares all entities, refreshes both sides' epochs.
  Database(const Database& other);
  ~Database() override;

  Database& operator=(const Database&) = delete;

  // Live Database instances in the process (tests: version retirement —
  // a retired MVCC version must actually free its Database).
  static int64_t live_instance_count();

  // --- time ---------------------------------------------------------------

  TimePoint now() const { return clock_.now(); }
  void Tick(int64_t steps = 1) {
    clock_.Tick(steps);
    footprint_.clock_advanced = true;
  }
  Status AdvanceTo(TimePoint t) {
    TCH_RETURN_IF_ERROR(clock_.AdvanceTo(t));
    footprint_.clock_advanced = true;
    return Status::OK();
  }

  // --- schema -------------------------------------------------------------

  // Defines a class (lifespan starts now). Validates the spec: identifier
  // syntax, attribute/method types (well-formed, no `any`), existing &
  // alive superclasses, Rule 6.1 refinement, method co/contravariance.
  Status DefineClass(const ClassSpec& spec);
  // Ends the class lifespan now. Fails while the class has living members
  // or subclasses that are still alive.
  Status DropClass(std::string_view name);

  // Monotone counter bumped by every schema-shape change (define / drop /
  // restore). Copied through COW publication, so a pinned snapshot's
  // schema version is consistent with its class table — the plan cache
  // (query/session.h) keys compiled statements on it.
  uint64_t schema_version() const { return schema_version_; }

  const ClassDef* GetClass(std::string_view name) const;
  Result<const ClassDef*> FindClass(std::string_view name) const;
  std::vector<std::string> ClassNames() const;
  size_t class_count() const { return classes_->map.size(); }
  const IsaGraph& isa() const { return *isa_; }

  // Sets a c-attribute of a class (type-checked; temporal c-attributes are
  // asserted from now).
  Status SetClassAttribute(std::string_view class_name,
                           std::string_view attr_name, Value v);
  // The metaclass view of Section 4: the class seen as the unique instance
  // of its metaclass, with the class `history` record as its state.
  Result<Value> ClassHistory(std::string_view class_name) const;
  // Materializes the full meta-object: an Object whose attributes are the
  // class's c-attributes plus `ext`/`proper-ext`, whose lifespan is the
  // class lifespan, and whose class history names the metaclass
  // ("m-<name>"). Built on demand — the class state stays the single
  // source of truth. The meta-object's oid is synthetic (not in the
  // object store; metaclass extents are the singleton {class}).
  Result<Object> MetaObjectOf(std::string_view class_name) const;
  // The class signature of the metaclass itself: attributes are the
  // class's c-attributes plus ext/proper-ext, methods its c-methods; its
  // own metaclass is the fixed root "metaclass" (Smalltalk-80 style, so
  // the tower terminates).
  Result<ClassSpec> MetaclassSpecOf(std::string_view class_name) const;

  // --- object lifecycle ----------------------------------------------------

  // Initial attribute values at creation. For a temporal attribute the
  // value may be either a plain value of the static counterpart type
  // (asserted from the creation instant) or a full temporal-function value
  // (retroactive history; must lie within the lifespan).
  using FieldInits = std::vector<Value::Field>;

  // Creates an object of `class_name`, alive from now.
  Result<Oid> CreateObject(std::string_view class_name,
                           FieldInits init = {});
  // Creates an object retroactively, alive from `start` (start <= now and
  // within the class lifespan). The new oid gets membership rows from
  // `start`; other members' rows are untouched.
  Result<Oid> CreateObjectAt(std::string_view class_name, TimePoint start,
                             FieldInits init = {});

  // Updates attribute `attr` of `oid` to `v`:
  //   static attribute   — replaces the current value (no history kept);
  //   temporal attribute — asserts `v` from now onward.
  // `v` is type-checked against the attribute domain first.
  Status UpdateAttribute(Oid oid, std::string_view attr, Value v);
  // Valid-time update of a temporal attribute over an explicit interval
  // (retroactive corrections, future-dated assertions).
  Status UpdateAttributeAt(Oid oid, std::string_view attr,
                           const Interval& interval, Value v);

  // Migrates `oid` so that its most specific class becomes `new_class`
  // from now on (specialization or generalization; must stay within the
  // object's ISA hierarchy, Invariant 6.2). Attributes are adjusted per
  // Section 5.2: dropped static attributes disappear; dropped temporal
  // attributes are closed but retained; `added` supplies initial values
  // for attributes gained by the migration.
  Status Migrate(Oid oid, std::string_view new_class, FieldInits added = {});

  // Deletes `oid`: its lifespan ends at now (it still exists *at* now) and
  // it leaves every extent from now+1. Fails if other live objects still
  // reference it (referential integrity, Definition 5.6).
  Status DeleteObject(Oid oid);
  // Deletes unconditionally (used by failure-injection tests).
  Status DeleteObjectUnchecked(Oid oid);
  // Erases `oid` outright and scrubs it from every class extent, at all
  // instants — no lifespan bookkeeping, no referential-integrity check.
  // Not a model operation: recovery-only surgery for quarantining objects
  // that fail the post-recovery audit (see storage/recovery.h). Callers
  // must re-audit afterwards, since references *to* the quarantined
  // object may now dangle.
  Status QuarantineObject(Oid oid);

  const Object* GetObject(Oid oid) const;
  Object* GetMutableObject(Oid oid);
  Result<const Object*> FindObject(Oid oid) const;
  std::vector<Oid> AllOids() const;
  size_t object_count() const;
  // The next oid the database will assign (serialized with snapshots).
  uint64_t next_oid() const { return next_oid_; }

  // --- Table 3 functions ----------------------------------------------------

  // pi(c, t): the extent of class c at instant t.
  std::vector<Oid> Pi(std::string_view class_name, TimePoint t) const;
  Result<const Type*> StructuralTypeOf(std::string_view class_name) const;
  Result<const Type*> HistoricalTypeOf(std::string_view class_name) const;
  Result<const Type*> StaticTypeOf(std::string_view class_name) const;
  Result<Value> HStateOf(Oid oid, TimePoint t) const;
  Result<Value> SStateOf(Oid oid) const;
  Result<Interval> OLifespan(Oid oid) const;
  // m_lifespan(i, c): the instants at which i was a member of c.
  Result<IntervalSet> MLifespan(Oid oid, std::string_view class_name) const;
  Result<std::vector<Oid>> Ref(Oid oid, TimePoint t) const;
  Result<Value> SnapshotOf(Oid oid, TimePoint t) const;

  // --- temporal secondary indexes (core/db/index.h) -------------------------

  // Registers and builds a secondary index. Validates the declared class
  // (and, for a value index, its attribute), bumps schema_version() —
  // index DDL invalidates every cached plan, including negative entries —
  // and records a schema-shape footprint (index DDL serializes against
  // every concurrent commit).
  Status CreateIndex(const IndexDef& def);
  Status DropIndex(std::string_view name);
  const IndexDef* GetIndexDef(std::string_view name) const;
  // All registered definitions, sorted by name (serialization order).
  std::vector<IndexDef> IndexDefs() const;
  // The first (by name) value index over `attr`; nullptr when none.
  // Class is not part of the match: postings cover every object carrying
  // the attribute, and extent membership is re-checked per probe.
  const IndexDef* FindValueIndex(std::string_view attr) const;

  // Probes a value index: ascending, deduplicated oids whose indexed
  // attribute satisfies `op bound` at instant `t` (raw validity intervals
  // are resolved against now()). Extent filtering is the caller's job.
  std::vector<Oid> IndexProbe(std::string_view index_name, ProbeOp op,
                              const Value& bound, TimePoint t) const;
  // How many postings `op bound` spans, ignoring validity intervals —
  // the planner's cardinality estimate.
  size_t IndexProbeEstimate(std::string_view index_name, ProbeOp op,
                            const Value& bound) const;
  // Total postings in `index_name`.
  size_t IndexEntryCount(std::string_view index_name) const;
  // The postings of `index_name`, base and delta (core/db/index.h);
  // nullptr when no such index.
  const IndexPostings* FindIndexPostings(std::string_view index_name) const;

  // Canonical text dump of every index's full content (defs and
  // postings). Two databases with identical objects and index defs dump
  // identically — the bit-identical-rebuild check recovery/replication
  // tests assert.
  std::string DebugDumpIndexes() const;

  // --- typing ----------------------------------------------------------------

  TypingContext typing_context() const { return {*this, *isa_}; }

  // ExtentProvider:
  bool InExtent(std::string_view class_name, Oid oid,
                TimePoint t) const override;
  bool InExtentThroughout(std::string_view class_name, Oid oid,
                          const Interval& interval) const override;
  std::optional<std::string> MostSpecificClass(Oid oid,
                                               TimePoint t) const override;

  // --- raw restore (storage layer only) -----------------------------------

  // Restores the clock / oid counter without the monotonicity checks
  // (loading a snapshot starts from scratch).
  void RestoreClock(TimePoint t) { clock_ = Clock(t); }
  void RestoreNextOid(uint64_t next) { next_oid_ = next; }
  // Registers a class whose members are already *effective* (inherited
  // members included) and whose state was captured by a serializer.
  // Superclasses must have been restored first.
  Status RestoreClass(const ClassSpec& effective_spec,
                      const Interval& lifespan, TemporalFunction ext,
                      TemporalFunction proper_ext,
                      std::vector<Value::Field> c_attr_values);
  // Registers an object with raw state (no typing or extent side effects;
  // the serialized extents already contain it).
  Status RestoreObject(Oid oid, const Interval& lifespan,
                       TemporalFunction class_history,
                       std::vector<Value::Field> attributes);

  // --- optimistic concurrency (core/db/versioned_db.h) ---------------------

  // Everything mutated since the last TakeFootprint() (or construction /
  // copy — copies start with an empty footprint). Mutating accessors
  // record into this as a side effect.
  const WriteFootprint& footprint() const { return footprint_; }
  // Returns the accumulated footprint and resets it to empty.
  WriteFootprint TakeFootprint();

  // Adopts the slots listed in `fp` from `src` (a transaction-private COW
  // copy of an ancestor of *this) into this database. Used by the
  // optimistic commit path when other commits landed after the
  // transaction's base, once validation has established that none of
  // them touched any of these slots, so per-slot substitution is
  // equivalent to having run the transaction on the head directly.
  // Adopted slots get epoch 0 (matches no Database), so this side
  // re-clones them before its next in-place mutation. `fp` must be
  // slot-level: schema and `all` footprints never validate over an
  // intervening commit, so they are never adopted (asserted).
  // Deliberately does NOT record into this database's own footprint: the
  // caller tracks the transaction's footprint separately.
  void AdoptChanges(const Database& src, const WriteFootprint& fp);

 private:
  // --- COW storage ---------------------------------------------------------
  //
  // Classes and objects live behind shared_ptr so copies of the Database
  // share them structurally. Every slot (and every map spine / shard)
  // carries the COW epoch of the Database that created it; a mutable
  // accessor clones the slot's entity iff its epoch differs from ours —
  // i.e. exactly when the entity may be shared with another copy. Epochs
  // come from a process-global counter, so two copies can never
  // accidentally agree on an epoch and mutate a shared structure.
  //
  // Object shards hang off a two-level spine: the root holds
  // kSpineFanout groups, and group g holds object shards
  // [g*kSpineFanout, (g+1)*kSpineFanout). A copy shares the root (one
  // refcount); the first mutation per epoch clones the root and the one
  // group on the path (kSpineFanout pointers each), each under its own
  // epoch, before the shard itself.
  //
  // Indexes live in one table of (def, postings) slots sorted by name,
  // cloned on a writer's first index write per epoch. A slot's postings
  // are a shared base plus a small delta (core/db/index.h), so the clone
  // copies a few pointers per index.
  struct ClassSlot {
    std::shared_ptr<ClassDef> def;
    uint64_t epoch = 0;
  };
  struct ClassTable {
    uint64_t epoch = 0;
    std::map<std::string, ClassSlot, std::less<>> map;
  };
  struct ObjectSlot {
    std::shared_ptr<Object> obj;
    uint64_t epoch = 0;
  };
  // A shard's slots sorted by oid in one vector, so a shard clone is a
  // single allocation rather than one per slot.
  struct ObjectShard {
    uint64_t epoch = 0;
    std::vector<std::pair<uint64_t, ObjectSlot>> slots;

    const ObjectSlot* Find(uint64_t id) const;
    ObjectSlot* Find(uint64_t id);
    // Inserts `id`'s slot, or replaces it when present.
    void Put(uint64_t id, ObjectSlot slot);
    void Erase(uint64_t id);
  };
  static constexpr size_t kObjectShardCount = 64;
  static constexpr size_t kSpineFanout = 8;
  static_assert(kSpineFanout * kSpineFanout == kObjectShardCount);
  struct SpineGroup {
    uint64_t epoch = 0;
    std::array<std::shared_ptr<ObjectShard>, kSpineFanout> objects;
  };
  struct Spine {
    uint64_t epoch = 0;
    std::array<std::shared_ptr<SpineGroup>, kSpineFanout> groups;
  };
  struct IndexSlot {
    std::shared_ptr<const IndexDef> def;
    IndexPostings postings;
  };
  struct IndexTable {
    uint64_t epoch = 0;
    std::vector<IndexSlot> slots;  // sorted by def->name
  };

  static size_t ShardIndex(uint64_t id) { return id % kObjectShardCount; }
  // Shard `s` (0 <= s < kObjectShardCount) of the spine; nullptr until
  // something is stored in it.
  const ObjectShard* ObjectShardAt(size_t s) const {
    return spine_->groups[s / kSpineFanout]->objects[s % kSpineFanout].get();
  }
  // Spine-level COW: a private, mutable class table / shard (cloned from
  // the shared one on first touch per epoch).
  ClassTable& MutableClassTable();
  // The group holding shard `s`, with the root and the group cloned on
  // first touch per epoch.
  SpineGroup& MutableGroup(size_t s);
  // Every object-slot mutation (create, clone for update, erase,
  // adoption) goes through here, so this is also where `id`'s indexed
  // facts are captured before the caller changes the slot — the "before"
  // half of the per-oid index delta ReindexOid applies.
  ObjectShard& MutableShard(uint64_t id);
  // The index table, cloned on first touch per epoch.
  IndexTable& MutableIndexTable();
  // The slot of `name`; nullptr when no such index.
  const IndexSlot* FindIndexSlot(std::string_view name) const;
  // Moves every registered index's entries for `id` from the facts
  // captured by MutableShard to the slot's current state (removal when
  // the slot is gone), touching only the postings that changed. Called
  // by every object mutation and by AdoptChanges for each adopted oid;
  // does not record footprint — index writes conflict through the oid
  // slots they accompany.
  void ReindexOid(uint64_t id);
  // Reindexes every oid with captured facts — a mutation that failed
  // after touching its slot leaves them pending. Index DDL runs this
  // first, since captures are laid out per registered index.
  void ReindexCaptured();
  // `def`'s postings over every object (index creation).
  IndexPostings BuildIndex(const IndexDef& def) const;

  ClassDef* GetMutableClass(std::string_view name);
  IsaGraph& MutableIsa();
  // The class and its transitive superclasses.
  std::vector<ClassDef*> SelfAndSuperclasses(std::string_view name);
  // Validates one creation/migration init value and installs it.
  Status InstallInitialValue(Object* obj, const AttributeDef& attr,
                             Value v, TimePoint start);

  Clock clock_;
  std::shared_ptr<IsaGraph> isa_;
  uint64_t isa_epoch_ = 0;
  std::shared_ptr<ClassTable> classes_;
  // Object shards (see SpineGroup). Never null; every group exists from
  // construction on.
  std::shared_ptr<Spine> spine_;
  // Every index (see IndexTable). Never null.
  std::shared_ptr<IndexTable> indexes_;
  // oid -> its indexed facts (one per index slot, in table order) as the
  // indexes currently hold them; present from the slot's first mutation
  // until ReindexOid applies the delta.
  std::map<uint64_t, std::vector<IndexedFacts>> index_before_;
  uint64_t next_oid_ = 1;
  uint64_t schema_version_ = 1;  // see schema_version()
  // Slots mutated since the last TakeFootprint(). Deliberately NOT copied
  // by the copy constructor: a fresh copy has touched nothing yet.
  WriteFootprint footprint_;
  // This copy's COW epoch (see ClassSlot). Atomic only because the copy
  // constructor refreshes the SOURCE's epoch too (both sides must re-COW
  // after a copy), and published MVCC versions may be copied while other
  // threads read them.
  mutable std::atomic<uint64_t> cow_epoch_{0};
};

}  // namespace tchimera

#endif  // TCHIMERA_CORE_DB_DATABASE_H_
