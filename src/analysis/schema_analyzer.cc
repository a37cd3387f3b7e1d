#include "analysis/schema_analyzer.h"

#include <map>
#include <set>
#include <string>
#include <utility>

#include "core/schema/refinement.h"
#include "core/types/subtyping.h"

namespace tchimera {
namespace {

// The analyzer's working view of one class: either a script declaration
// (spec != nullptr) or a class of the base database, normalized to the
// same shape (effective members keyed by name).
struct ClassEntry {
  const ClassSpec* spec = nullptr;
  size_t position = SourceLocation::kNoOffset;
  // Removal spans for the declared members (see SchemaDecl); may be null.
  const std::vector<SourceSpan>* attribute_spans = nullptr;
  const std::vector<SourceSpan>* c_attribute_spans = nullptr;
  bool from_base = false;
  bool poisoned = false;  // on an ISA cycle / under one: members unreliable
  std::vector<std::string> supers;  // resolved direct superclasses
  std::set<std::string> ancestors;  // transitive superclasses, self excluded
  std::map<std::string, AttributeDef> attrs;  // effective attributes
  std::map<std::string, AttributeDef> c_attrs;  // effective c-attributes
  std::map<std::string, MethodDef> methods;   // effective methods
  bool ancestors_done = false;
  bool merged = false;
};

using EntryMap = std::map<std::string, ClassEntry, std::less<>>;

// The ISA relation induced by the analyzed declarations plus the base
// database, answered from the precomputed ancestor sets.
class AnalyzerIsa final : public IsaProvider {
 public:
  explicit AnalyzerIsa(const EntryMap& entries) : entries_(entries) {}

  bool IsSubclassOf(std::string_view sub,
                    std::string_view super) const override {
    if (sub == super) return true;
    auto it = entries_.find(sub);
    return it != entries_.end() &&
           it->second.ancestors.count(std::string(super)) > 0;
  }

  std::optional<std::string> LeastCommonSuperclass(
      std::string_view a, std::string_view b) const override {
    std::set<std::string> ca = SelfAndAncestors(a);
    std::set<std::string> cb = SelfAndAncestors(b);
    std::vector<std::string> common;
    for (const std::string& c : ca) {
      if (cb.count(c) > 0) common.push_back(c);
    }
    // The least elements: candidates with no strictly more specific
    // candidate below them.
    std::vector<std::string> least;
    for (const std::string& c : common) {
      bool minimal = true;
      for (const std::string& d : common) {
        if (d != c && IsSubclassOf(d, c)) {
          minimal = false;
          break;
        }
      }
      if (minimal) least.push_back(c);
    }
    if (least.size() == 1) return least[0];
    return std::nullopt;
  }

 private:
  std::set<std::string> SelfAndAncestors(std::string_view name) const {
    std::set<std::string> out;
    out.insert(std::string(name));
    auto it = entries_.find(name);
    if (it != entries_.end()) {
      out.insert(it->second.ancestors.begin(), it->second.ancestors.end());
    }
    return out;
  }

  const EntryMap& entries_;
};

// Collects every class identifier used as an object type anywhere in `t`.
void CollectClassRefs(const Type* t, std::set<std::string>* out) {
  if (t == nullptr) return;
  switch (t->kind()) {
    case TypeKind::kObject:
      out->insert(t->class_name());
      break;
    case TypeKind::kSet:
    case TypeKind::kList:
    case TypeKind::kTemporal:
      CollectClassRefs(t->element(), out);
      break;
    case TypeKind::kRecord:
      for (const RecordField& f : t->fields()) CollectClassRefs(f.type, out);
      break;
    default:
      break;
  }
}

// The delete-the-redeclaration fix-it for declared member `i`, when the
// parser recorded a removal span for it.
std::vector<FixIt> RemoveDeclFix(const std::vector<SourceSpan>* spans,
                                 size_t i) {
  if (spans == nullptr || i >= spans->size() || !(*spans)[i].valid()) {
    return {};
  }
  return {FixIt{(*spans)[i].begin, (*spans)[i].length(), ""}};
}

class SchemaAnalysis {
 public:
  SchemaAnalysis(const Database* base, DiagnosticEngine* diags)
      : base_(base), diags_(diags) {}

  void Run(const std::vector<SchemaDecl>& decls) {
    LoadBase();
    RegisterDecls(decls);
    ResolveSupers();
    DetectCycles();
    ComputeAncestors();
    for (const std::string& name : decl_order_) {
      CheckDeclaredMembers(entries_.find(name)->second);
    }
    MergeInTopoOrder();
    CheckExtentLifespans();
  }

 private:
  // --- setup --------------------------------------------------------------

  void LoadBase() {
    if (base_ == nullptr) return;
    for (const std::string& name : base_->ClassNames()) {
      const ClassDef* def = base_->GetClass(name);
      ClassEntry e;
      e.from_base = true;
      e.merged = true;
      e.supers = def->direct_superclasses();
      for (const std::string& s : base_->isa().Superclasses(name)) {
        e.ancestors.insert(s);
      }
      for (const AttributeDef& a : def->attributes()) e.attrs[a.name] = a;
      for (const AttributeDef& a : def->c_attributes()) e.c_attrs[a.name] = a;
      for (const MethodDef& m : def->methods()) e.methods[m.name] = m;
      entries_.emplace(name, std::move(e));
    }
  }

  void RegisterDecls(const std::vector<SchemaDecl>& decls) {
    for (const SchemaDecl& d : decls) {
      if (d.spec == nullptr) continue;
      auto it = entries_.find(d.spec->name);
      if (it != entries_.end()) {
        diags_->Report(
            "TC008", d.position,
            "class '" + d.spec->name + "' is already defined" +
                (it->second.from_base ? " in the database" : "") +
                "; this definition is ignored by the analyzer",
            "class identifiers are unique (Definition 4.1)");
        continue;
      }
      ClassEntry e;
      e.spec = d.spec;
      e.position = d.position;
      e.attribute_spans = d.attribute_spans;
      e.c_attribute_spans = d.c_attribute_spans;
      entries_.emplace(d.spec->name, std::move(e));
      decl_order_.push_back(d.spec->name);
    }
  }

  void ResolveSupers() {
    for (const std::string& name : decl_order_) {
      ClassEntry& e = entries_.find(name)->second;
      for (const std::string& super : e.spec->superclasses) {
        if (entries_.count(super) == 0) {
          diags_->Report("TC002", e.position,
                         "class '" + name + "': unknown superclass '" +
                             super + "'",
                         "every superclass must be defined in the schema "
                         "or the database");
          e.poisoned = true;  // inherited members unknowable
          continue;
        }
        e.supers.push_back(super);
      }
    }
  }

  // --- ISA cycles (TC001) --------------------------------------------------

  void DetectCycles() {
    // Iterative 3-color DFS over the declared classes (base classes are
    // acyclic by construction and never point at declarations).
    std::map<std::string, int, std::less<>> color;  // 0 white 1 grey 2 black
    for (const std::string& root : decl_order_) {
      if (color[root] != 0) continue;
      // Stack of (name, next-super-index); `path` mirrors the grey chain.
      std::vector<std::pair<std::string, size_t>> stack{{root, 0}};
      std::vector<std::string> path{root};
      color[root] = 1;
      while (!stack.empty()) {
        auto& [name, next] = stack.back();
        ClassEntry& e = entries_.find(name)->second;
        if (next >= e.supers.size()) {
          color[name] = 2;
          stack.pop_back();
          path.pop_back();
          continue;
        }
        const std::string& super = e.supers[next++];
        ClassEntry& se = entries_.find(super)->second;
        if (se.from_base) continue;
        int c = color[super];
        if (c == 0) {
          color[super] = 1;
          stack.emplace_back(super, 0);
          path.push_back(super);
        } else if (c == 1) {
          ReportCycle(path, super);
        }
      }
    }
  }

  void ReportCycle(const std::vector<std::string>& path,
                   const std::string& back_to) {
    // The cycle is the suffix of `path` starting at `back_to`.
    size_t start = 0;
    while (start < path.size() && path[start] != back_to) ++start;
    std::string shown;
    for (size_t i = start; i < path.size(); ++i) {
      shown += path[i] + " -> ";
    }
    shown += back_to;
    ClassEntry& anchor = entries_.find(back_to)->second;
    diags_->Report("TC001", anchor.position,
                   "ISA cycle: " + shown,
                   "<=_ISA must be a partial order (Section 6); the classes "
                   "on the cycle are skipped by the analyzer");
    for (size_t i = start; i < path.size(); ++i) {
      entries_.find(path[i])->second.poisoned = true;
    }
  }

  // --- ancestors -----------------------------------------------------------

  void ComputeAncestors() {
    for (const std::string& name : decl_order_) {
      std::set<std::string> visiting;
      FillAncestors(name, &visiting);
    }
  }

  const std::set<std::string>& FillAncestors(const std::string& name,
                                             std::set<std::string>* visiting) {
    ClassEntry& e = entries_.find(name)->second;
    if (e.from_base || e.ancestors_done || visiting->count(name) > 0) {
      return e.ancestors;  // base sets are prefilled; cycles cut short
    }
    visiting->insert(name);
    for (const std::string& super : e.supers) {
      e.ancestors.insert(super);
      const std::set<std::string>& up = FillAncestors(super, visiting);
      e.ancestors.insert(up.begin(), up.end());
    }
    visiting->erase(name);
    e.ancestors_done = true;
    return e.ancestors;
  }

  // --- per-declaration checks (TC006, TC007) -------------------------------

  void CheckDeclaredMembers(const ClassEntry& e) {
    const ClassSpec& spec = *e.spec;
    CheckDuplicates(spec.attributes, "attribute", e);
    CheckDuplicates(spec.c_attributes, "c-attribute", e);
    std::set<std::string> refs;
    for (const AttributeDef& a : spec.attributes) {
      CollectClassRefs(a.type, &refs);
    }
    for (const AttributeDef& a : spec.c_attributes) {
      CollectClassRefs(a.type, &refs);
    }
    for (const MethodDef& m : spec.methods) {
      for (const Type* t : m.inputs) CollectClassRefs(t, &refs);
      CollectClassRefs(m.output, &refs);
    }
    for (const std::string& ref : refs) {
      if (entries_.count(ref) == 0) {
        diags_->Report("TC006", e.position,
                       "class '" + spec.name +
                           "': attribute domain references undefined class '" +
                           ref + "'",
                       "an object type names a class of the schema "
                       "(Definition 3.1); values of this domain could never "
                       "be well-typed (Definition 3.5)");
      }
    }
  }

  void CheckDuplicates(const std::vector<AttributeDef>& attrs,
                       const char* kind, const ClassEntry& e) {
    std::set<std::string> seen;
    for (const AttributeDef& a : attrs) {
      if (!seen.insert(a.name).second) {
        diags_->Report("TC007", e.position,
                       "class '" + e.spec->name + "': " + kind + " '" +
                           a.name + "' is declared more than once",
                       "attr maps each name to one domain (Definition 4.1)");
      }
    }
  }

  // --- inheritance merge (TC003, TC004, TC005, TC009) ----------------------

  void MergeInTopoOrder() {
    AnalyzerIsa isa(entries_);
    // Kahn-style: repeatedly merge declarations whose superclasses are all
    // merged. Poisoned entries (cycles / unknown supers) never merge, and
    // neither do their descendants — avoiding cascaded noise.
    bool progress = true;
    while (progress) {
      progress = false;
      for (const std::string& name : decl_order_) {
        ClassEntry& e = entries_.find(name)->second;
        if (e.merged || e.poisoned) continue;
        bool ready = true;
        for (const std::string& super : e.supers) {
          const ClassEntry& se = entries_.find(super)->second;
          if (se.poisoned) {
            ready = false;
            e.poisoned = true;  // inherited members unknowable
            break;
          }
          if (!se.merged) ready = false;
        }
        if (!ready) continue;
        MergeOne(e, isa);
        e.merged = true;
        progress = true;
      }
    }
  }

  void MergeOne(ClassEntry& e, const IsaProvider& isa) {
    const ClassSpec& spec = *e.spec;
    // name -> first providing superclass, for conflict messages.
    std::map<std::string, std::string> attr_from;
    std::map<std::string, std::string> attr_conflict;  // second source
    std::map<std::string, std::string> cattr_from;
    std::map<std::string, std::string> meth_from;
    std::map<std::string, std::string> meth_conflict;
    for (const std::string& super : e.supers) {
      const ClassEntry& se = entries_.find(super)->second;
      for (const auto& [name, a] : se.c_attrs) {
        if (e.c_attrs.emplace(name, a).second) cattr_from.emplace(name, super);
      }
      for (const auto& [name, a] : se.attrs) {
        auto it = e.attrs.find(name);
        if (it == e.attrs.end()) {
          e.attrs.emplace(name, a);
          attr_from.emplace(name, super);
        } else if (it->second.type != a.type) {
          attr_conflict.emplace(name, super);
        }
      }
      for (const auto& [name, m] : se.methods) {
        auto it = e.methods.find(name);
        if (it == e.methods.end()) {
          e.methods.emplace(name, m);
          meth_from.emplace(name, super);
        } else if (it->second.inputs != m.inputs ||
                   it->second.output != m.output) {
          meth_conflict.emplace(name, super);
        }
      }
    }
    std::set<std::string> declared_names;
    for (size_t ai = 0; ai < spec.attributes.size(); ++ai) {
      const AttributeDef& a = spec.attributes[ai];
      if (!declared_names.insert(a.name).second) continue;  // TC007 already
      auto it = e.attrs.find(a.name);
      if (it != e.attrs.end() && attr_from.count(a.name) > 0) {
        const AttributeDef& inherited = it->second;
        if (inherited.is_temporal() && !a.is_temporal()) {
          diags_->Report(
              "TC004", e.position,
              "class '" + spec.name + "': temporal attribute '" + a.name +
                  "' (inherited from '" + attr_from[a.name] +
                  "' with domain " + inherited.type->ToString() +
                  ") is redeclared with non-temporal domain " +
                  a.type->ToString(),
              "a temporal attribute can never become non-temporal "
              "(Rule 6.1): instances of the subclass could not carry the "
              "histories Invariants 6.1/6.2 require of every member of '" +
                  attr_from[a.name] + "'");
        } else if (Status s = CheckAttributeRefinement(inherited, a, isa);
                   !s.ok()) {
          diags_->Report(
              "TC003", e.position,
              "class '" + spec.name + "': " + s.message() +
                  " (inherited from '" + attr_from[a.name] + "')",
              "Rule 6.1 admits only T' <=_T T or T' = temporal(T'') with "
              "T'' <=_T T");
        }
      }
      if (auto cit = e.c_attrs.find(a.name);
          cit != e.c_attrs.end() && cattr_from.count(a.name) > 0) {
        // An instance attribute over an inherited c-attribute: the two
        // live in different namespaces at runtime (attr vs c-attr slots),
        // so the subclass silently hides the class-level member.
        diags_->Report(
            "TC013", e.position,
            "class '" + spec.name + "': attribute '" + a.name +
                "' shadows the c-attribute inherited from '" +
                cattr_from[a.name] + "' (domain " +
                cit->second.type->ToString() + ")",
            "c-attributes are class-level members with their own value "
            "slot (Section 4); an instance attribute of the same name "
            "hides it in the subclass without refining it (Rule 6.1)",
            RemoveDeclFix(e.attribute_spans, ai));
      }
      e.attrs[a.name] = a;
      attr_conflict.erase(a.name);
      attr_from.erase(a.name);  // redeclared locally: no longer inherited
    }
    for (size_t ci = 0; ci < spec.c_attributes.size(); ++ci) {
      const AttributeDef& a = spec.c_attributes[ci];
      if (auto cit = e.c_attrs.find(a.name);
          cit != e.c_attrs.end() && cattr_from.count(a.name) > 0) {
        // Redefining an inherited c-attribute gives the subclass its own
        // value slot, starting null and independent of the superclass's
        // stored value — almost never what the schema author meant.
        diags_->Report(
            "TC013", e.position,
            "class '" + spec.name + "': c-attribute '" + a.name +
                "' redefines the c-attribute inherited from '" +
                cattr_from[a.name] + "' (domain " +
                cit->second.type->ToString() +
                "); the subclass gets its own value slot, detached from "
                "the superclass's value",
            "c-attributes carry one value per class (Section 4); "
            "redefining one in a subclass shadows the inherited value "
            "slot rather than refining it (Rule 6.1)",
            RemoveDeclFix(e.c_attribute_spans, ci));
      } else if (auto ait = e.attrs.find(a.name);
                 ait != e.attrs.end() && attr_from.count(a.name) > 0) {
        diags_->Report(
            "TC013", e.position,
            "class '" + spec.name + "': c-attribute '" + a.name +
                "' shadows the attribute inherited from '" +
                attr_from[a.name] + "' (domain " +
                ait->second.type->ToString() + ")",
            "an inherited instance attribute and a class-level "
            "c-attribute of the same name are different members "
            "(Section 4); the redeclaration hides rather than refines "
            "(Rule 6.1)",
            RemoveDeclFix(e.c_attribute_spans, ci));
      }
      e.c_attrs[a.name] = a;
      cattr_from.erase(a.name);
    }
    for (const auto& [name, second_src] : attr_conflict) {
      const AttributeDef& first = e.attrs.find(name)->second;
      const AttributeDef* other =
          entries_.find(second_src)->second.attrs.count(name) > 0
              ? &entries_.find(second_src)->second.attrs.find(name)->second
              : nullptr;
      std::string detail =
          "'" + attr_from[name] + "' declares " + first.type->ToString();
      if (other != nullptr) {
        detail += ", '" + second_src + "' declares " + other->type->ToString();
        if (first.is_temporal() != other->is_temporal()) {
          detail += " (temporal vs non-temporal)";
        }
      }
      diags_->Report(
          "TC005", e.position,
          "class '" + spec.name + "' inherits conflicting domains for "
              "attribute '" + name + "' and does not redeclare it: " + detail,
          "multiple-inheritance conflicts must be resolved by an explicit "
          "Rule 6.1 redeclaration in the subclass");
    }
    declared_names.clear();
    for (const MethodDef& m : spec.methods) {
      if (!declared_names.insert(m.name).second) continue;
      auto it = e.methods.find(m.name);
      if (it != e.methods.end() && meth_from.count(m.name) > 0) {
        if (Status s = CheckMethodRefinement(it->second, m, isa); !s.ok()) {
          diags_->Report(
              "TC009", e.position,
              "class '" + spec.name + "': " + s.message() +
                  " (inherited from '" + meth_from[m.name] + "')",
              "method redefinition is covariant in the result and "
              "contravariant in the inputs (Section 6.1)");
        }
      }
      e.methods[m.name] = m;
      meth_conflict.erase(m.name);
      meth_from.erase(m.name);
    }
    for (const auto& [name, second_src] : meth_conflict) {
      diags_->Report(
          "TC005", e.position,
          "class '" + spec.name + "' inherits conflicting signatures for "
              "method '" + name + "' (from '" + meth_from[name] + "' and '" +
              second_src + "') and does not redeclare it",
          "multiple-inheritance conflicts must be resolved by an explicit "
          "redeclaration in the subclass");
    }
  }

  // --- extent / lifespan audit (TC012) -------------------------------------
  //
  // Invariant 5.1 confines ext(c) to lifespan(c); membership propagation
  // (every instance of c is a member of every superclass, Invariant 6.1)
  // lifts that to superclass lifespans: an interval during which c had
  // members but a superclass did not exist is unsatisfiable. Declarations
  // cannot carry extents, so the interval checks apply to base-database
  // classes; for declarations the analyzable shadow of the same invariant
  // is a dead base superclass — every future member of the declared class
  // would land outside that superclass's closed lifespan.

  void CheckExtentLifespans() {
    if (base_ == nullptr) return;
    const TimePoint now = base_->now();
    for (const std::string& name : base_->ClassNames()) {
      const ClassDef* def = base_->GetClass(name);
      const Interval ext = def->ext_rows().Domain(def->lifespan().end());
      CheckExtentWithin(name, "ext", ext, name, def->lifespan(), now);
      CheckExtentWithin(name, "proper-ext",
                        def->proper_ext_rows().Domain(def->lifespan().end()),
                        name, def->lifespan(), now);
      for (const std::string& super : def->direct_superclasses()) {
        const ClassDef* sdef = base_->GetClass(super);
        if (sdef == nullptr) continue;
        CheckExtentWithin(name, "ext", ext, super, sdef->lifespan(), now);
      }
    }
    for (const std::string& name : decl_order_) {
      const ClassEntry& e = entries_.find(name)->second;
      for (const std::string& super : e.supers) {
        if (!entries_.find(super)->second.from_base) continue;
        const ClassDef* sdef = base_->GetClass(super);
        if (sdef == nullptr || sdef->alive()) continue;
        diags_->Report(
            "TC012", e.position,
            "class '" + name + "': superclass '" + super +
                "' has a closed lifespan " + sdef->lifespan().ToString() +
                "; every future member of '" + name +
                "' would fall outside it",
            "ext(c) is confined to lifespan(c) (Invariant 5.1), and every "
            "member of a class is a member of its superclasses "
            "(Invariant 6.1), so a class cannot acquire members after a "
            "superclass's lifespan ended");
      }
    }
  }

  void CheckExtentWithin(const std::string& cls, const char* which,
                         const Interval& extent_domain,
                         const std::string& owner, const Interval& lifespan,
                         TimePoint now) {
    if (lifespan.Covers(extent_domain, now)) return;
    const bool self = owner == cls;
    diags_->Report(
        "TC012", SourceLocation::kNoOffset,
        "class '" + cls + "': " + which + " interval " +
            extent_domain.Resolve(now).ToString() +
            " lies outside the lifespan " + lifespan.ToString() +
            (self ? "" : " of superclass '" + owner + "'"),
        self ? "ext(c) is confined to lifespan(c) (Invariant 5.1)"
             : "every member of a class is a member of its superclasses "
               "(Invariant 6.1), and their extents are confined to their "
               "lifespans (Invariant 5.1)");
  }

  const Database* base_;
  DiagnosticEngine* diags_;
  EntryMap entries_;
  std::vector<std::string> decl_order_;
};

}  // namespace

void AnalyzeSchema(const std::vector<SchemaDecl>& decls, const Database* base,
                   DiagnosticEngine* diags) {
  SchemaAnalysis(base, diags).Run(decls);
}

void AnalyzeClassSpec(const ClassSpec& spec, size_t position,
                      const Database* base, DiagnosticEngine* diags) {
  AnalyzeSchema({{&spec, position}}, base, diags);
}

}  // namespace tchimera
