/**
 * @file
 * In-memory trace buffer with reference-count bookkeeping.
 */

#ifndef TLC_TRACE_BUFFER_HH
#define TLC_TRACE_BUFFER_HH

#include <cstdint>
#include <vector>

#include "trace/record.hh"

namespace tlc {

/**
 * A sequence of trace records held in memory, with per-type counts
 * maintained incrementally (the quantities Table 1 of the paper
 * reports per benchmark).
 */
class TraceBuffer
{
  public:
    TraceBuffer() = default;

    void reserve(std::size_t n) { records_.reserve(n); }

    /**
     * Add one record: the per-record call of decode and synthesis.
     * The count is indexed by type, not switched on it, because
     * traces interleave the types too irregularly to predict.
     */
    void append(TraceRecord rec)
    {
        records_.push_back(rec);
        ++counts_[static_cast<unsigned>(rec.type)];
    }

    void append(std::uint32_t addr, RefType type)
    {
        append(TraceRecord{addr, type});
    }

    /**
     * Drop records from the tail until only @p n remain, keeping the
     * per-type counts consistent. Used by the trace readers to roll
     * a partially-appended buffer back to its pre-call size when a
     * read fails part-way through. Asserts when @p n exceeds size().
     */
    void truncate(std::size_t n);

    const std::vector<TraceRecord> &records() const { return records_; }
    std::size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }
    const TraceRecord &operator[](std::size_t i) const
    {
        return records_[i];
    }

    std::uint64_t instrRefs() const { return counts_[0]; }
    std::uint64_t loadRefs() const { return counts_[1]; }
    std::uint64_t storeRefs() const { return counts_[2]; }
    std::uint64_t dataRefs() const { return counts_[1] + counts_[2]; }
    std::uint64_t totalRefs() const { return records_.size(); }

    void clear();

    auto begin() const { return records_.begin(); }
    auto end() const { return records_.end(); }

  private:
    std::vector<TraceRecord> records_;
    std::uint64_t counts_[3] = {0, 0, 0}; ///< by RefType value
};

} // namespace tlc

#endif // TLC_TRACE_BUFFER_HH
