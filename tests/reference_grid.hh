/**
 * @file
 * The 64-point reference grid the sweep differentials run on: L1
 * sizes 1 KiB..128 KiB, each alone and under a 2x..128x L2 (8 L1
 * sizes x 8 shapes). Small enough to simulate many times over in
 * one test, and wide enough that a supervised run of it spans
 * several shards. Also the worker-count guard those differentials
 * pin their sweep width with.
 */

#ifndef TLC_TESTS_REFERENCE_GRID_HH
#define TLC_TESTS_REFERENCE_GRID_HH

#include <cstdint>
#include <vector>

#include "core/system_config.hh"
#include "util/parallel.hh"
#include "util/units.hh"

namespace tlc {

/** Sets the worker-count override (the sweep width) for a test and
 *  clears it when the test exits. */
class WorkerCountGuard
{
  public:
    explicit WorkerCountGuard(unsigned n) { setParallelWorkerCount(n); }
    ~WorkerCountGuard() { setParallelWorkerCount(0); }
    WorkerCountGuard(const WorkerCountGuard &) = delete;
    WorkerCountGuard &operator=(const WorkerCountGuard &) = delete;
};

inline std::vector<SystemConfig>
referenceGrid()
{
    std::vector<SystemConfig> configs;
    for (std::uint64_t l1 = 1_KiB; l1 <= 128_KiB; l1 *= 2) {
        SystemConfig c;
        c.l1Bytes = l1;
        c.l2Bytes = 0;
        configs.push_back(c);
        for (std::uint64_t ratio = 2; ratio <= 128; ratio *= 2) {
            c.l2Bytes = l1 * ratio;
            configs.push_back(c);
        }
    }
    return configs;
}

} // namespace tlc

#endif // TLC_TESTS_REFERENCE_GRID_HH
