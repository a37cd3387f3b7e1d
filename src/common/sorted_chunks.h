// A sorted sequence stored in shared, immutable chunks: the copy-on-write
// layout behind the value-index postings (core/db/index.h) and the class
// extent membership rows (core/schema/class_def.h).
//
// Chunks hold at most `Capacity` entries. A bulk build packs them full;
// an insert into a full chunk splits it in half, except that an append
// past the end starts a new chunk; an erase that empties a chunk drops
// it. Copying the sequence copies chunk pointers only, and an insert or
// erase copies just the one chunk it lands in, so two copies share every
// chunk neither has touched since. `Less` is a default-constructible
// strict weak order over T.
#ifndef TCHIMERA_COMMON_SORTED_CHUNKS_H_
#define TCHIMERA_COMMON_SORTED_CHUNKS_H_

#include <algorithm>
#include <cassert>
#include <compare>
#include <cstddef>
#include <iterator>
#include <memory>
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

template <typename T, typename Less, size_t Capacity = kChunkCapacity>
class SortedChunks {
 public:
  using Chunk = std::vector<T>;

  // Packs already-sorted entries into full chunks.
  static SortedChunks Build(std::vector<T> sorted) {
    SortedChunks out;
    out.size_ = sorted.size();
    for (size_t i = 0; i < sorted.size(); i += Capacity) {
      const size_t stop = std::min(sorted.size(), i + Capacity);
      out.chunks_.push_back(std::make_shared<const Chunk>(
          std::make_move_iterator(sorted.begin() + i),
          std::make_move_iterator(sorted.begin() + stop)));
    }
    return out;
  }

  // Total entries, and the chunks holding them.
  size_t size() const { return size_; }
  size_t chunk_count() const { return chunks_.size(); }
  bool empty() const { return chunks_.empty(); }

  ChunkRange All() const { return {{0, 0}, {chunks_.size(), 0}}; }
  // The entry at a position that is not the end.
  const T& At(ChunkPos p) const { return (*chunks_[p.chunk])[p.offset]; }

  size_t Count(const ChunkRange& range) const {
    size_t n = 0;
    for (ChunkPos p = range.first; p < range.last; p = {p.chunk + 1, 0}) {
      const size_t stop = p.chunk == range.last.chunk
                              ? range.last.offset
                              : chunks_[p.chunk]->size();
      n += stop - p.offset;
    }
    return n;
  }

  template <typename Fn>
  void ForEach(const ChunkRange& range, Fn&& fn) const {
    for (ChunkPos p = range.first; p < range.last; p = {p.chunk + 1, 0}) {
      const Chunk& chunk = *chunks_[p.chunk];
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
          return before(c->back());
        });
    if (chunk == chunks_.end()) return {chunks_.size(), 0};
    const Chunk& c = **chunk;
    return {static_cast<size_t>(chunk - chunks_.begin()),
            static_cast<size_t>(
                std::partition_point(c.begin(), c.end(), before) - c.begin())};
  }

  // Inserts `entry` after every entry that orders before it.
  void Insert(T entry) {
    ChunkPos pos = PartitionPoint(
        [&](const T& e) { return Less()(e, entry); });
    ++size_;
    if (chunks_.empty()) {
      chunks_.push_back(std::make_shared<const Chunk>(1, std::move(entry)));
      return;
    }
    if (pos.chunk == chunks_.size()) {
      // An append starts a new chunk when the last one is full, so
      // ascending inserts (new oids) leave full chunks behind.
      if (chunks_.back()->size() == Capacity) {
        chunks_.push_back(std::make_shared<const Chunk>(1, std::move(entry)));
        return;
      }
      pos = {pos.chunk - 1, chunks_.back()->size()};
    }
    const Chunk& old = *chunks_[pos.chunk];
    auto chunk = std::make_shared<Chunk>();
    chunk->reserve(old.size() + 1);
    chunk->insert(chunk->end(), old.begin(), old.begin() + pos.offset);
    chunk->push_back(std::move(entry));
    chunk->insert(chunk->end(), old.begin() + pos.offset, old.end());
    if (chunk->size() > Capacity) {
      const size_t half = chunk->size() / 2;
      auto tail = std::make_shared<const Chunk>(
          std::make_move_iterator(chunk->begin() + half),
          std::make_move_iterator(chunk->end()));
      chunk->resize(half);
      chunks_.insert(chunks_.begin() + pos.chunk + 1, std::move(tail));
    }
    chunks_[pos.chunk] = std::move(chunk);
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
    const Chunk& old = *chunks_[pos.chunk];
    --size_;
    if (old.size() == 1) {
      chunks_.erase(chunks_.begin() + pos.chunk);
      return;
    }
    auto chunk = std::make_shared<Chunk>();
    chunk->reserve(old.size() - 1);
    chunk->insert(chunk->end(), old.begin(), old.begin() + pos.offset);
    chunk->insert(chunk->end(), old.begin() + pos.offset + 1, old.end());
    chunks_[pos.chunk] = std::move(chunk);
  }

 private:
  // Non-empty chunks; their concatenation is sorted by Less.
  std::vector<std::shared_ptr<const Chunk>> chunks_;
  size_t size_ = 0;
};

}  // namespace tchimera

#endif  // TCHIMERA_COMMON_SORTED_CHUNKS_H_
