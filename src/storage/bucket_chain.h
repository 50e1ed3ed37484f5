#ifndef PROGIDX_STORAGE_BUCKET_CHAIN_H_
#define PROGIDX_STORAGE_BUCKET_CHAIN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"

namespace progidx {

namespace persist {
class Writer;
class Reader;
}  // namespace persist

/// A bucket implemented as a linked list of fixed-size memory blocks,
/// exactly as §3.2 ("Bucket Layout") describes: appending allocates a
/// new block every `block_capacity` elements, which costs τ in the cost
/// model; reads pay one random access per block boundary.
///
/// Used by Progressive Radixsort (MSD/LSD) and Progressive Bucketsort.
class BucketChain {
 public:
  /// Default block capacity `sb`. Chosen so a block is a few pages: the
  /// paper leaves sb as a parameter; 2^12 elements = 32 KiB blocks.
  static constexpr size_t kDefaultBlockCapacity = 1ull << 12;

  explicit BucketChain(size_t block_capacity = kDefaultBlockCapacity)
      : block_capacity_(block_capacity) {}

  BucketChain(const BucketChain&) = delete;
  BucketChain& operator=(const BucketChain&) = delete;
  BucketChain(BucketChain&&) = default;
  BucketChain& operator=(BucketChain&&) = default;

  /// Appends one element, allocating a new block when the tail is full.
  void Append(value_t v) {
    if (tail_ == nullptr || tail_->count == block_capacity_) {
      AddBlock();
    }
    tail_->values[tail_->count++] = v;
    size_++;
  }

  /// Appends `k` elements in order, block-wise (memcpy across block
  /// boundaries). The bulk flush path of the write-combining scatter.
  void AppendRun(const value_t* src, size_t k);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t block_count() const { return blocks_.size(); }
  size_t block_capacity() const { return block_capacity_; }

  /// Number of block allocations performed so far (the τ term of the
  /// cost model; exposed for cost accounting and tests).
  size_t allocations() const { return blocks_.size(); }

  /// Invokes `fn(value)` for every element in append order. Append
  /// order is what makes LSD radix passes stable.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Block& block : blocks_) {
      for (size_t i = 0; i < block.count; i++) fn(block.values[i]);
    }
  }

  /// Copies all elements, in append order, to `out`; returns the number
  /// of elements written. Block-wise memcpy, not an element loop.
  size_t CopyTo(value_t* out) const;

  /// SUM + COUNT of elements in [q.low, q.high], scanning each
  /// contiguous block with the dispatched vector kernel (the chain
  /// analog of PredicatedRangeSum).
  QueryResult RangeSum(const RangeQuery& q) const;

  /// Releases all blocks.
  void Clear();

  /// Prefetches the tail block's next write slot. Budgeted drains call
  /// this a few elements ahead of Append so the scatter across many
  /// destination chains is not bound by cache-miss latency.
  void PrefetchTail() const {
    if (tail_ != nullptr) {
      __builtin_prefetch(&tail_->values[tail_->count], 1, 1);
    }
  }

  /// A resumable read position inside a chain, used by budgeted drains
  /// (an LSD pass may stop mid-bucket when the per-query budget runs
  /// out and resume at the same element on the next query).
  struct Cursor {
    size_t block = 0;
    size_t offset = 0;
  };

  /// True when `cursor` has reached the end of the chain.
  bool AtEnd(const Cursor& cursor) const {
    return cursor.block >= blocks_.size();
  }

  /// Points `*run` at the contiguous elements from `cursor` to the end
  /// of its block and returns their number (0 when AtEnd). Lets
  /// budgeted drains hand whole block slices to vector kernels.
  size_t ContiguousRun(const Cursor& cursor, const value_t** run) const {
    if (AtEnd(cursor)) return 0;
    const Block& b = blocks_[cursor.block];
    *run = b.values.get() + cursor.offset;
    return b.count - cursor.offset;
  }

  /// Advances `cursor` by `k` elements; `k` must not exceed the current
  /// ContiguousRun length. A cursor never rests at the end of a block:
  /// reaching it moves the cursor to the next block's start.
  void Advance(Cursor* cursor, size_t k) const {
    cursor->offset += k;
    if (cursor->offset >= blocks_[cursor->block].count) {
      cursor->offset = 0;
      cursor->block++;
    }
  }

  /// Serializes block capacity + contents in append order
  /// (docs/recovery.md). Because every block except the tail is always
  /// full, reloading through AppendRun reproduces the block geometry
  /// exactly, so saved Cursors remain valid against the reloaded chain.
  void SaveState(persist::Writer* w) const;
  /// Replaces this chain's contents with state saved by SaveState
  /// (adopting the saved block capacity). Returns false on a corrupt
  /// payload.
  bool LoadState(persist::Reader* r);

  /// True when `cursor` is a position this chain could yield: within
  /// bounds and normalized (never resting at the end of a block).
  /// Loaders validate deserialized cursors with this before use.
  bool CursorValid(const Cursor& cursor) const {
    if (cursor.block >= blocks_.size()) {
      return cursor.block == blocks_.size() && cursor.offset == 0;
    }
    return cursor.offset < blocks_[cursor.block].count;
  }
  /// Elements before a valid `cursor` (the drained prefix): every block
  /// but the tail is full, and the end cursor has drained them all
  /// (block × capacity there would overcount a partial tail).
  size_t Position(const Cursor& cursor) const {
    if (AtEnd(cursor)) return size_;
    return cursor.block * block_capacity_ + cursor.offset;
  }

 private:
  struct Block {
    explicit Block(size_t capacity)
        : values(std::make_unique<value_t[]>(capacity)) {}
    std::unique_ptr<value_t[]> values;
    size_t count = 0;
  };

  void AddBlock();

  size_t block_capacity_;
  /// Held by value: one allocation per block, and no pointer hop to
  /// reach its values. tail_ points at blocks_.back().
  std::vector<Block> blocks_;
  Block* tail_ = nullptr;
  size_t size_ = 0;
};

/// The bucket-scatter inner loop, parameterized on how a batch of
/// destination ids is resolved: `fill_ids(batch, len, ids)` fills
/// ids[0, len) for batch[0, len); every id must be < `num_chains`.
///
/// Large scatters stage each chain's elements in a 256 B per-chain
/// software write-combining buffer and flush full buffers with one
/// block-wise AppendRun, so the per-element work is a buffer store and
/// a counter instead of a full Append (tail-full branch + two size
/// counters) against a far cache line. Small scatters (or more chains
/// than the WC table covers) keep the per-element loop, with each
/// destination chain's tail prefetched a few stores ahead.
template <typename FillIds>
void ScatterToChainsBatched(FillIds&& fill_ids, const value_t* src, size_t n,
                            BucketChain* chains, size_t num_chains) {
  constexpr size_t kBatch = 1024;
  uint32_t ids[kBatch];
  constexpr size_t kWcSlots = 32;       // 256 B staged per chain
  constexpr size_t kWcMaxChains = 256;  // 64 KiB WC table at most
  if (num_chains == 0 || num_chains > kWcMaxChains || n < 8 * num_chains) {
    constexpr size_t kPrefetchDist = 8;
    size_t i = 0;
    while (i < n) {
      const size_t len = std::min(kBatch, n - i);
      fill_ids(src + i, len, ids);
      for (size_t j = 0; j < len; j++) {
        if (j + kPrefetchDist < len) {
          chains[ids[j + kPrefetchDist]].PrefetchTail();
        }
        chains[ids[j]].Append(src[i + j]);
      }
      i += len;
    }
    return;
  }
  struct WcTable {
    alignas(64) value_t buf[kWcMaxChains * kWcSlots];
    uint32_t fill[kWcMaxChains];
  };
  static thread_local WcTable wc;
  for (size_t d = 0; d < num_chains; d++) wc.fill[d] = 0;
  size_t i = 0;
  while (i < n) {
    const size_t len = std::min(kBatch, n - i);
    fill_ids(src + i, len, ids);
    for (size_t j = 0; j < len; j++) {
      const uint32_t d = ids[j];
      value_t* buf = wc.buf + d * kWcSlots;
      uint32_t f = wc.fill[d];
      buf[f++] = src[i + j];
      if (f == kWcSlots) {
        chains[d].AppendRun(buf, kWcSlots);
        f = 0;
      }
      wc.fill[d] = f;
    }
    i += len;
  }
  for (size_t d = 0; d < num_chains; d++) {
    if (wc.fill[d] != 0) {
      chains[d].AppendRun(wc.buf + d * kWcSlots, wc.fill[d]);
    }
  }
}

/// Scatters src[0, n) into chains[((v − base) >> shift) & mask], with
/// the ids resolved by the dispatched vector digit kernel; `chains`
/// must hold mask + 1 entries. This is the radix bucket-scatter shared
/// by Progressive Radixsort MSD (root bucketing and splits, one call
/// per drained block run) and LSD (creation and per-pass drains, the
/// same), on the calling thread. Progressive Bucketsort runs
/// ScatterToChainsBatched with its equi-height lookup instead, through
/// parallel::ScatterToChainsBatched: the lookups may run on the pool,
/// the appends stay on the calling thread.
void ScatterToChains(const value_t* src, size_t n, value_t base, int shift,
                     uint32_t mask, BucketChain* chains);

}  // namespace progidx

#endif  // PROGIDX_STORAGE_BUCKET_CHAIN_H_
