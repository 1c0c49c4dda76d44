/**
 * @file
 * The sweep service proper: the engine behind both the tlcd daemon
 * (service/daemon.hh) and the CLI drivers' --request=FILE path. One
 * SweepService owns the resources that make repeated sweeps cheap —
 * a shared persistent SweepCache and a shared TracePool — and runs
 * each decoded SweepRequestSpec through a FRESH MissRateEvaluator +
 * Explorer against them.
 *
 * Why fresh per request: a long-lived evaluator's in-memory memo
 * would absorb repeats silently, making per-request cache accounting
 * meaningless and hiding the persistent store from view. With a
 * fresh evaluator every repeated point resolves in the shared store,
 * so the second client's warm re-sweep is (a) near-free and (b)
 * visibly so in its stats document (store_hits > 0) — the service's
 * headline property, pinned by tests/test_service.cc and checked
 * on every served request of bench/layers' served_mix workload.
 *
 * Accounting: each sweep returns its own memo and store counts
 * (BenchmarkSweep), and run() adds them up, so a request's stats
 * document never reads another sweep's ticks of the process-wide
 * counters.
 *
 * Determinism: run() serializes sweep execution under an engine
 * mutex (concurrent CLIENTS are served concurrently at the
 * connection layer; their sweeps execute in arrival order). The
 * engine itself is the classic batched Explorer path, so a served
 * response's points, envelopes and failures are byte-identical to a
 * standalone CLI run of the same request — warm or cold.
 */

#ifndef TLC_SERVICE_SWEEP_SERVICE_HH
#define TLC_SERVICE_SWEEP_SERVICE_HH

#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "core/explorer.hh"
#include "core/sweep_cache.hh"
#include "service/sweep_codec.hh"
#include "util/args.hh"
#include "util/status.hh"

namespace tlc::service {

/** Construction-time configuration of a SweepService. */
struct SweepServiceOptions
{
    /** Persistent result-store path ("" => in-memory only: requests
     *  still share traces, but no cross-request result reuse). */
    std::string resultStorePath;
    /** fsync the store after every append (see ResultStoreOptions). */
    bool storeFsync = false;
};

/** What one served sweep produced, plus its runtime accounting. */
struct ServiceRun
{
    SweepOutcome outcome;
    SweepAccounting accounting;
};

class SweepService
{
  public:
    explicit SweepService(SweepServiceOptions options = {});

    /** Open the persistent store (no-op without a path). Call once
     *  before serving; IoError Status when the store cannot open. */
    Status init();

    /**
     * Run one decoded request to completion. @p progress (optional)
     * receives the engine's throttled SweepProgress updates — from
     * worker threads, so it must be cheap and thread-safe.
     */
    ServiceRun run(const SweepRequestSpec &spec,
                   const std::function<void(const SweepProgress &)>
                       &progress = {});

    /** The shared store (null when no path was configured). */
    SweepCache *store() { return store_.get(); }
    /** The shared trace pool (never null). */
    TracePool &tracePool() { return *pool_; }

  private:
    SweepServiceOptions options_;
    std::shared_ptr<SweepCache> store_;
    std::shared_ptr<TracePool> pool_;
    /** Serializes request execution, and nothing else: each sweep
     *  starts a worker team as wide as its request, and nothing yet
     *  caps the teams across the process, so two requests in flight
     *  would oversubscribe the cores. */
    std::mutex engineMu_;
};

/**
 * The CLI drivers' --request=FILE path: read and strict-decode the
 * request document, run it against a one-shot SweepService built
 * from the shared sweep flags (result store, fsync), write the
 * canonical response + '\n' to stdout and, with --stats-out, the
 * accounting document + '\n' there. Exit-code semantics: 0 on a
 * served sweep (fail-soft failures live in the response), 1 on a
 * request that could not be decoded or a store that could not open.
 *
 * Byte-identity contract: for the same request document, the bytes
 * written here equal the bytes tlc_client --out writes when talking
 * to a daemon — one schema, one encoder (docs/service.md).
 */
int runRequestCli(const cli::SweepFlags &flags);

} // namespace tlc::service

#endif // TLC_SERVICE_SWEEP_SERVICE_HH
