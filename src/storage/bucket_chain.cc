#include "storage/bucket_chain.h"

#include <algorithm>
#include <cstring>

#include "kernels/kernels.h"
#include "persist/io.h"

namespace progidx {

void BucketChain::AddBlock() {
  blocks_.emplace_back(block_capacity_);
  tail_ = &blocks_.back();
}

void BucketChain::AppendRun(const value_t* src, size_t k) {
  size_ += k;
  while (k > 0) {
    if (tail_ == nullptr || tail_->count == block_capacity_) {
      AddBlock();
    }
    const size_t take = std::min(k, block_capacity_ - tail_->count);
    std::memcpy(tail_->values.get() + tail_->count, src,
                take * sizeof(value_t));
    tail_->count += take;
    src += take;
    k -= take;
  }
}

size_t BucketChain::CopyTo(value_t* out) const {
  size_t written = 0;
  for (const Block& block : blocks_) {
    std::memcpy(out + written, block.values.get(),
                block.count * sizeof(value_t));
    written += block.count;
  }
  return written;
}

QueryResult BucketChain::RangeSum(const RangeQuery& q) const {
  const kernels::KernelOps& ops = kernels::Dispatch();
  QueryResult result;
  for (const Block& block : blocks_) {
    result += ops.range_sum_predicated(block.values.get(), block.count, q);
  }
  return result;
}

void BucketChain::Clear() {
  blocks_.clear();
  tail_ = nullptr;
  size_ = 0;
}

void BucketChain::SaveState(persist::Writer* w) const {
  w->WriteU64(block_capacity_);
  w->WriteU64(size_);
  for (const Block& block : blocks_) {
    w->WriteValues(block.values.get(), block.count);
  }
}

bool BucketChain::LoadState(persist::Reader* r) {
  const size_t capacity = r->ReadU64();
  const size_t total = r->ReadU64();
  if (!r->ok() || capacity == 0) return false;
  Clear();
  block_capacity_ = capacity;
  size_t loaded = 0;
  while (loaded < total) {
    size_t n = 0;
    const value_t* run = r->ReadValueRun(&n);
    if (run == nullptr || n == 0 || loaded + n > total) return false;
    AppendRun(run, n);
    loaded += n;
  }
  return r->ok();
}

void ScatterToChains(const value_t* src, size_t n, value_t base, int shift,
                     uint32_t mask, BucketChain* chains) {
  ScatterToChainsBatched(
      [base, shift, mask](const value_t* batch, size_t len, uint32_t* ids) {
        kernels::ComputeDigits(batch, len, base, shift, mask, ids);
      },
      src, n, chains, static_cast<size_t>(mask) + 1);
}

}  // namespace progidx
