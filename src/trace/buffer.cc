/**
 * @file
 * Trace buffer implementation.
 */

#include "buffer.hh"

#include "util/logging.hh"

namespace tlc {

void
TraceBuffer::truncate(std::size_t n)
{
    tlc_assert(n <= records_.size(), "truncate(%zu) beyond size %zu", n,
               records_.size());
    while (records_.size() > n) {
        --counts_[static_cast<unsigned>(records_.back().type)];
        records_.pop_back();
    }
}

void
TraceBuffer::clear()
{
    records_.clear();
    counts_[0] = counts_[1] = counts_[2] = 0;
}

} // namespace tlc
