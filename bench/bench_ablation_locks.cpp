/**
 * @file
 * Ablation: indirect locking (DESIGN.md Sec. 5).
 *
 * iDO's indirect lock holders let each acquire and each release
 * persist its ownership record (lock_array slot + bitmap bit, one
 * cache line) with exactly one fence (Sec. III-B); JUSTDO's
 * persistent-mutex protocol pays two fences per lock operation
 * (intention + ownership); Atlas pays one ordered log append per
 * operation plus a global sequence increment.  This harness isolates a
 * lock/unlock round trip inside a minimal FASE and reports time and
 * persist events per round trip.  Its lock region may store, so iDO's
 * log is live at the acquire and both lock ops pay their fence; a lock
 * taken in a store-free prefix instead defers its record to the
 * activation fence (lazy lock records, measured by fig5's ido vs
 * ido_eager_locks rows).
 */
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "runtime/runtime.h"

using namespace ido;
using namespace ido::bench;

namespace {

uint32_t
lock_region(rt::RuntimeThread& th, rt::RegionCtx& ctx)
{
    th.fase_lock(ctx.r[0]);
    return 1;
}

uint32_t
unlock_region(rt::RuntimeThread& th, rt::RegionCtx& ctx)
{
    th.fase_unlock(ctx.r[0]);
    return rt::kRegionEnd;
}

const rt::FaseProgram&
lock_pair_program()
{
    static const rt::FaseProgram prog = [] {
        rt::FaseProgram p;
        p.fase_id = 8001;
        p.name = "ablation.lockpair";
        p.regions = {
            {lock_region, "lock", 1, 0, 0, 0},
            {unlock_region, "unlock", 1, 0, 0, 0},
        };
        return p;
    }();
    return prog;
}

void
BM_LockRoundTrip(benchmark::State& state)
{
    const auto kind =
        static_cast<baselines::RuntimeKind>(state.range(0));
    BenchWorld world(kind, 64u << 20);
    auto th = world.runtime->make_thread();
    const uint64_t holder = th->nv_alloc(64);
    th->store_u64(holder, 0);
    persist_counters_reset_global();
    tls_persist_counters().clear();
    uint64_t ops = 0;
    Stopwatch clock;
    for (auto _ : state) {
        rt::RegionCtx ctx;
        ctx.r[0] = holder;
        th->run_fase(lock_pair_program(), ctx);
        ++ops;
    }
    const double secs = clock.elapsed_seconds();
    const PersistCounters& c = tls_persist_counters();
    state.counters["fences/op"] =
        benchmark::Counter(double(c.fences) / double(ops ? ops : 1));
    state.counters["flushes/op"] =
        benchmark::Counter(double(c.flushes) / double(ops ? ops : 1));
    state.SetLabel(baselines::runtime_kind_name(kind));
    persist_counters_flush_tls();
    // One row per benchmark run; warm-up runs append too, which a
    // JSON-lines file tolerates (consumers keep the last row per key).
    emit_json_row("ablation_locks", baselines::runtime_kind_name(kind),
                  1, ops, secs);
}

} // namespace

BENCHMARK(BM_LockRoundTrip)
    ->Arg(static_cast<int>(baselines::RuntimeKind::kIdo))
    ->Arg(static_cast<int>(baselines::RuntimeKind::kAtlas))
    ->Arg(static_cast<int>(baselines::RuntimeKind::kJustdo))
    ->Arg(static_cast<int>(baselines::RuntimeKind::kOrigin));

BENCHMARK_MAIN();
