/**
 * @file
 * Reference-stream generator implementations.
 */

#include "streams.hh"

#include <algorithm>
#include <cstring>

#include "util/bitutil.hh"
#include "util/logging.hh"

namespace tlc {

// ---------------------------------------------------------------------
// SequentialStream
// ---------------------------------------------------------------------

SequentialStream::SequentialStream(std::uint32_t base,
                                   std::uint32_t array_bytes,
                                   unsigned num_arrays, unsigned stride,
                                   double reuse_prob, unsigned reuse_window,
                                   std::uint64_t seed)
    : base_(base), arrayBytes_(array_bytes), numArrays_(num_arrays),
      stride_(stride), reuseProb_(reuse_prob), reuseWindow_(reuse_window),
      rng_(seed, 0x5e01)
{
    tlc_assert(array_bytes >= stride && stride > 0, "bad array geometry");
    tlc_assert(num_arrays > 0, "need at least one array");
}

std::uint32_t
SequentialStream::next()
{
    std::uint32_t off = offset_;
    if (reuseProb_ > 0.0 && rng_.nextDouble() < reuseProb_) {
        // Re-reference a recent element without advancing.
        unsigned back = 1 + rng_.nextBounded(reuseWindow_);
        std::uint64_t delta = static_cast<std::uint64_t>(back) * stride_;
        if (delta <= off)
            off -= static_cast<std::uint32_t>(delta);
        return base_ + curArray_ * arrayBytes_ + off;
    }
    std::uint32_t addr = base_ + curArray_ * arrayBytes_ + off;
    offset_ += stride_;
    if (offset_ >= arrayBytes_) {
        offset_ = 0;
        curArray_ = (curArray_ + 1) % numArrays_;
    }
    return addr;
}

// ---------------------------------------------------------------------
// StackDistStream
// ---------------------------------------------------------------------

StackDistStream::StackDistStream(std::uint32_t base,
                                 std::uint32_t region_bytes,
                                 unsigned granularity, double new_prob,
                                 double geom_p, double geom_weight,
                                 double zipf_s, std::uint64_t seed)
    : base_(base), maxObjects_(region_bytes / granularity),
      granularity_(granularity), newProb_(new_prob), geomP_(geom_p),
      geomWeight_(geom_weight), depthZipf_(zipf_s), rng_(seed, 0x57ac)
{
    tlc_assert(granularity >= 4, "granularity too small");
    tlc_assert(maxObjects_ > 1, "region too small for granularity");
    stack_.reserve(maxObjects_);
}

std::uint32_t
StackDistStream::next()
{
    std::uint32_t obj;
    bool fresh = stack_.empty() ||
        (stack_.size() < maxObjects_ && rng_.nextDouble() < newProb_);
    if (fresh) {
        obj = nextFresh_++;
        stack_.insert(stack_.begin(), obj);
    } else {
        std::uint32_t n = static_cast<std::uint32_t>(stack_.size());
        std::uint32_t depth;
        if (rng_.nextDouble() < geomWeight_) {
            depth = rng_.nextGeometric(geomP_);
        } else {
            depth = depthZipf_(rng_, n);
        }
        if (depth >= n)
            depth = n - 1;
        obj = stack_[depth];
        // Move to front.
        std::memmove(stack_.data() + 1, stack_.data(),
                     depth * sizeof(std::uint32_t));
        stack_[0] = obj;
    }
    return base_ + obj * granularity_ +
        rng_.nextBounded(granularity_ / 4) * 4;
}

// ---------------------------------------------------------------------
// ZipfStream
// ---------------------------------------------------------------------

ZipfStream::ZipfStream(std::uint32_t base, std::uint32_t region_bytes,
                       unsigned granularity, double s, std::uint64_t seed)
    : base_(base), granularity_(granularity),
      numObjects_(region_bytes / granularity), rankZipf_(s),
      rng_(seed, 0x21bf)
{
    tlc_assert(numObjects_ > 1, "region too small for granularity");
    // A fixed odd multiplier scatters popularity ranks over the
    // region so the hot set is not one contiguous block.
    scatterMul_ = 2654435761u | 1u;
}

std::uint32_t
ZipfStream::next()
{
    std::uint32_t rank = rankZipf_(rng_, numObjects_);
    // rank+1 so that rank 0 does not pin the hottest object to the
    // region base.
    std::uint32_t obj = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(rank + 1) * scatterMul_) %
        numObjects_);
    return base_ + obj * granularity_ +
        rng_.nextBounded(granularity_ / 4) * 4;
}

// ---------------------------------------------------------------------
// PointerChaseStream
// ---------------------------------------------------------------------

PointerChaseStream::PointerChaseStream(std::uint32_t base,
                                       std::uint32_t region_bytes,
                                       unsigned granularity,
                                       std::uint64_t seed)
    : base_(base), granularity_(granularity)
{
    std::uint32_t n = region_bytes / granularity;
    tlc_assert(n > 1, "region too small for granularity");
    // Build a single random cycle with Sattolo's algorithm so the
    // walk visits every line before repeating.
    nextIdx_.resize(n);
    for (std::uint32_t i = 0; i < n; ++i)
        nextIdx_[i] = i;
    Pcg32 rng(seed, 0xc4a5e);
    for (std::uint32_t i = n - 1; i > 0; --i) {
        std::uint32_t j = rng.nextBounded(i);
        std::swap(nextIdx_[i], nextIdx_[j]);
    }
}

std::uint32_t
PointerChaseStream::next()
{
    cur_ = nextIdx_[cur_];
    return base_ + cur_ * granularity_;
}

// ---------------------------------------------------------------------
// LoopCodeStream
// ---------------------------------------------------------------------

LoopCodeStream::LoopCodeStream(const LoopCodeParams &params,
                               std::uint64_t seed)
    : p_(params), funcZipf_(params.zipfS), rng_(seed, 0xc0de)
{
    tlc_assert(p_.numFuncs > 0, "need at least one function");
    funcInstrs_ = p_.codeBytes / p_.numFuncs / 4;
    tlc_assert(funcInstrs_ >= 4, "functions too small (%u instrs)",
               funcInstrs_);
    switchFunction();
}

void
LoopCodeStream::switchFunction()
{
    curFunc_ = funcZipf_(rng_, p_.numFuncs);
    pc_ = 0;
    inLoop_ = false;
}

std::uint32_t
LoopCodeStream::next()
{
    std::uint32_t addr =
        p_.base + (curFunc_ * funcInstrs_ + pc_) * 4;

    // Advance control flow.
    ++pc_;
    if (inLoop_ && pc_ >= loopEnd_) {
        if (itersLeft_ > 0) {
            --itersLeft_;
            pc_ = loopStart_;
        } else {
            inLoop_ = false;
        }
    }
    if (!inLoop_ && pc_ < funcInstrs_ &&
        rng_.nextDouble() < p_.loopStartProb) {
        std::uint32_t body = 2 +
            rng_.nextGeometric(1.0 / static_cast<double>(p_.avgLoopBody));
        loopStart_ = pc_;
        loopEnd_ = std::min(pc_ + body, funcInstrs_);
        itersLeft_ =
            rng_.nextGeometric(1.0 / static_cast<double>(p_.avgLoopIters));
        inLoop_ = itersLeft_ > 0;
    }
    if (pc_ >= funcInstrs_ ||
        (!inLoop_ && rng_.nextDouble() < p_.callProb)) {
        switchFunction();
    }
    return addr;
}

} // namespace tlc
