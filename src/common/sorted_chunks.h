// A sorted sequence stored in shared, immutable chunks: the copy-on-write
// layout behind the value-index postings (core/db/index.h) and the class
// extent membership rows (core/schema/class_def.h).
//
// Chunks hold at most `Capacity` entries. A bulk build packs them full;
// an insert into a full chunk splits it in half, except that an append
// past the end starts a new chunk; an erase that empties a chunk drops
// it. Copying the sequence copies chunk pointers only, and an insert or
// erase copies just the one chunk it lands in, so two copies share every
// chunk neither has touched since. A batch of inserts and erases can
// also be applied in one sorted pass (Merged), which copies each chunk
// it touches once. `Less` is a default-constructible strict weak order
// over T.
//
// Each chunk carries a `Summary` of its entries, built once when the
// chunk is made (chunks are immutable, so it never goes stale): for
// example the latest end among a chunk's rows, which lets a scan skip
// chunks that cannot match. The default summarizes nothing.
#ifndef TCHIMERA_COMMON_SORTED_CHUNKS_H_
#define TCHIMERA_COMMON_SORTED_CHUNKS_H_

#include <algorithm>
#include <cassert>
#include <compare>
#include <cstddef>
#include <iterator>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace tchimera {

inline constexpr size_t kChunkCapacity = 64;

// A position in a chunked sequence. Normalized: `offset` is inside chunk
// `chunk`, except for the end position {chunk count, 0}.
struct ChunkPos {
  size_t chunk = 0;
  size_t offset = 0;
  friend auto operator<=>(const ChunkPos&, const ChunkPos&) = default;
};

// The half-open range [first, last).
struct ChunkRange {
  ChunkPos first;
  ChunkPos last;
};

// The default chunk summary: nothing.
struct NoChunkSummary {
  template <typename T>
  explicit NoChunkSummary(std::span<const T>) {}
};

template <typename T, typename Less, size_t Capacity = kChunkCapacity,
          typename Summary = NoChunkSummary>
class SortedChunks {
 public:
  struct Chunk {
    explicit Chunk(std::vector<T> e)
        : entries(std::move(e)), summary(std::span<const T>(entries)) {}
    std::vector<T> entries;  // non-empty, sorted by Less
    Summary summary;
  };

  // Packs already-sorted entries into full chunks.
  static SortedChunks Build(std::vector<T> sorted) {
    return BuildFrom(sorted.size(),
                     [&](size_t i) { return std::move(sorted[i]); });
  }
  // The same for `n` sorted entries that `entry(i)` makes one at a time,
  // so the caller need not hold them all as T.
  template <typename Make>
  static SortedChunks BuildFrom(size_t n, Make&& entry) {
    SortedChunks out;
    out.size_ = n;
    out.chunks_.reserve((n + Capacity - 1) / Capacity);
    for (size_t i = 0; i < n; i += Capacity) {
      const size_t stop = std::min(n, i + Capacity);
      std::vector<T> chunk;
      chunk.reserve(stop - i);
      for (size_t k = i; k < stop; ++k) chunk.push_back(entry(k));
      out.chunks_.push_back(MakeChunk(std::move(chunk)));
    }
    return out;
  }

  // Total entries, and the chunks holding them.
  size_t size() const { return size_; }
  size_t chunk_count() const { return chunks_.size(); }
  bool empty() const { return chunks_.empty(); }

  ChunkRange All() const { return {{0, 0}, {chunks_.size(), 0}}; }
  // The entry at a position that is not the end.
  const T& At(ChunkPos p) const { return chunks_[p.chunk]->entries[p.offset]; }
  // The position after `p`, which is not the end.
  ChunkPos Next(ChunkPos p) const {
    return p.offset + 1 < chunks_[p.chunk]->entries.size()
               ? ChunkPos{p.chunk, p.offset + 1}
               : ChunkPos{p.chunk + 1, 0};
  }
  // Chunk `c`'s entries and summary.
  std::span<const T> ChunkEntries(size_t c) const {
    return chunks_[c]->entries;
  }
  const Summary& ChunkSummary(size_t c) const { return chunks_[c]->summary; }

  size_t Count(const ChunkRange& range) const {
    size_t n = 0;
    for (ChunkPos p = range.first; p < range.last; p = {p.chunk + 1, 0}) {
      const size_t stop = p.chunk == range.last.chunk
                              ? range.last.offset
                              : chunks_[p.chunk]->entries.size();
      n += stop - p.offset;
    }
    return n;
  }

  template <typename Fn>
  void ForEach(const ChunkRange& range, Fn&& fn) const {
    for (ChunkPos p = range.first; p < range.last; p = {p.chunk + 1, 0}) {
      const std::vector<T>& chunk = chunks_[p.chunk]->entries;
      const size_t stop =
          p.chunk == range.last.chunk ? range.last.offset : chunk.size();
      for (size_t i = p.offset; i < stop; ++i) fn(chunk[i]);
    }
  }

  // The first position whose entry does not satisfy `before` (entries
  // satisfying it must form a prefix): binary search over the chunks'
  // last entries, then within one chunk.
  template <typename Pred>
  ChunkPos PartitionPoint(Pred before) const {
    auto chunk = std::partition_point(
        chunks_.begin(), chunks_.end(),
        [&](const std::shared_ptr<const Chunk>& c) {
          return before(c->entries.back());
        });
    if (chunk == chunks_.end()) return {chunks_.size(), 0};
    const std::vector<T>& c = (*chunk)->entries;
    return {static_cast<size_t>(chunk - chunks_.begin()),
            static_cast<size_t>(
                std::partition_point(c.begin(), c.end(), before) - c.begin())};
  }

  // The first entry equivalent to `key`, or nullptr.
  const T* Find(const T& key) const {
    const ChunkPos pos =
        PartitionPoint([&](const T& e) { return Less()(e, key); });
    if (pos.chunk == chunks_.size() || Less()(key, At(pos))) return nullptr;
    return &At(pos);
  }

  // Inserts `entry` after every entry that orders before it.
  void Insert(T entry) {
    ChunkPos pos = PartitionPoint(
        [&](const T& e) { return Less()(e, entry); });
    ++size_;
    if (chunks_.empty()) {
      chunks_.push_back(MakeChunk(std::vector<T>(1, std::move(entry))));
      return;
    }
    if (pos.chunk == chunks_.size()) {
      // An append starts a new chunk when the last one is full, so
      // ascending inserts (new oids) leave full chunks behind.
      if (chunks_.back()->entries.size() == Capacity) {
        chunks_.push_back(MakeChunk(std::vector<T>(1, std::move(entry))));
        return;
      }
      pos = {pos.chunk - 1, chunks_.back()->entries.size()};
    }
    const std::vector<T>& old = chunks_[pos.chunk]->entries;
    std::vector<T> grown;
    grown.reserve(old.size() + 1);
    grown.insert(grown.end(), old.begin(), old.begin() + pos.offset);
    grown.push_back(std::move(entry));
    grown.insert(grown.end(), old.begin() + pos.offset, old.end());
    if (grown.size() > Capacity) {
      const size_t half = grown.size() / 2;
      std::vector<T> tail(std::make_move_iterator(grown.begin() + half),
                          std::make_move_iterator(grown.end()));
      grown.resize(half);
      chunks_.insert(chunks_.begin() + pos.chunk + 1,
                     MakeChunk(std::move(tail)));
    }
    chunks_[pos.chunk] = MakeChunk(std::move(grown));
  }

  // Erases the first entry equivalent to `key`. Callers erase only what
  // the sequence holds.
  void Erase(const T& key) {
    const ChunkPos pos =
        PartitionPoint([&](const T& e) { return Less()(e, key); });
    const bool held =
        pos.chunk < chunks_.size() && !Less()(key, At(pos));
    assert(held);
    if (!held) return;
    const std::vector<T>& old = chunks_[pos.chunk]->entries;
    --size_;
    if (old.size() == 1) {
      chunks_.erase(chunks_.begin() + pos.chunk);
      return;
    }
    std::vector<T> shrunk;
    shrunk.reserve(old.size() - 1);
    shrunk.insert(shrunk.end(), old.begin(), old.begin() + pos.offset);
    shrunk.insert(shrunk.end(), old.begin() + pos.offset + 1, old.end());
    chunks_[pos.chunk] = MakeChunk(std::move(shrunk));
  }

  // A copy with the entries of `erase` removed and those of `insert`
  // added, in one sorted pass. Both lists are sorted by Less; every
  // `erase` entry is held, and no `insert` entry is equivalent to an
  // entry that stays. A chunk neither list reaches is shared; each
  // maximal run of consecutive touched chunks is rebuilt once and
  // re-packed as one unit into the fewest chunks of at most Capacity
  // entries, so a batch that erases most of a range leaves no trail of
  // nearly empty chunks.
  SortedChunks Merged(std::span<const T> erase,
                      std::span<const T> insert) const {
    assert(erase.size() <= size_);
    SortedChunks out;
    out.size_ = size_ - erase.size() + insert.size();
    out.chunks_.reserve(chunks_.size() + insert.size() / Capacity + 1);
    if (chunks_.empty()) {
      out.AppendPacked(std::vector<T>(insert.begin(), insert.end()));
      return out;
    }
    const Less less;
    // ends[c]: where chunk c's share of `erase` and of `insert` ends. A
    // chunk takes the entries that order no later than its last one; the
    // last chunk takes the rest. Chunk c is touched when its share is
    // not empty.
    std::vector<std::pair<size_t, size_t>> ends(chunks_.size());
    size_t e = 0;
    size_t n = 0;
    for (size_t c = 0; c < chunks_.size(); ++c) {
      const T& back = chunks_[c]->entries.back();
      const bool last = c + 1 == chunks_.size();
      while (e < erase.size() && (last || !less(back, erase[e]))) ++e;
      while (n < insert.size() && (last || !less(back, insert[n]))) ++n;
      ends[c] = {e, n};
    }
    const auto touched = [&](size_t c) {
      return ends[c] != (c == 0 ? std::pair<size_t, size_t>{0, 0}
                                : ends[c - 1]);
    };
    e = 0;
    n = 0;
    for (size_t c = 0; c < chunks_.size();) {
      if (!touched(c)) {
        out.chunks_.push_back(chunks_[c++]);
        continue;
      }
      // The maximal run [c, stop) of touched chunks, rebuilt into one
      // vector sized to fit.
      size_t stop = c;
      size_t held = 0;
      while (stop < chunks_.size() && touched(stop)) {
        held += chunks_[stop++]->entries.size();
      }
      std::vector<T> run;
      run.reserve(held - (ends[stop - 1].first - e) +
                  (ends[stop - 1].second - n));
      for (; c < stop; ++c) {
        // Copies the runs between the changes, each change found by
        // binary search: an erase at its held entry, an insert after
        // every entry not ordering after it. An erase goes first on a
        // tie, so an insert equivalent to an erased entry takes its
        // place.
        const std::vector<T>& old = chunks_[c]->entries;
        const auto [e_end, n_end] = ends[c];
        auto from = old.begin();
        while (e < e_end || n < n_end) {
          if (e < e_end && (n == n_end || !less(insert[n], erase[e]))) {
            const auto at = std::lower_bound(from, old.end(), erase[e], less);
            assert(at != old.end() && !less(erase[e], *at));
            run.insert(run.end(), from, at);
            from = at + 1;
            ++e;
          } else {
            const auto at =
                std::upper_bound(from, old.end(), insert[n], less);
            run.insert(run.end(), from, at);
            run.push_back(insert[n++]);
            from = at;
          }
        }
        run.insert(run.end(), from, old.end());
      }
      out.AppendPacked(std::move(run));
    }
    return out;
  }

 private:
  static std::shared_ptr<const Chunk> MakeChunk(std::vector<T> entries) {
    return std::make_shared<const Chunk>(std::move(entries));
  }

  // Appends `entries` as the fewest chunks of at most Capacity, of
  // near-equal sizes; nothing when empty.
  void AppendPacked(std::vector<T> entries) {
    if (entries.empty()) return;
    const size_t pieces = (entries.size() + Capacity - 1) / Capacity;
    if (pieces == 1) {
      chunks_.push_back(MakeChunk(std::move(entries)));
      return;
    }
    size_t from = 0;
    for (size_t k = 0; k < pieces; ++k) {
      const size_t to = entries.size() * (k + 1) / pieces;
      chunks_.push_back(MakeChunk(
          std::vector<T>(std::make_move_iterator(entries.begin() + from),
                         std::make_move_iterator(entries.begin() + to))));
      from = to;
    }
  }

  // Non-empty chunks; their concatenation is sorted by Less.
  std::vector<std::shared_ptr<const Chunk>> chunks_;
  size_t size_ = 0;
};

}  // namespace tchimera

#endif  // TCHIMERA_COMMON_SORTED_CHUNKS_H_
