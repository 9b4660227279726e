/**
 * @file
 * Figure 7 reproduction: microbenchmark throughput (millions of data
 * structure operations per second) vs. thread count for the stack,
 * two-lock queue, hand-over-hand ordered list, and hash map, across
 * all runtimes (the JUSTDO-paper microbenchmarks, Sec. V-B).
 *
 * Paper shape: iDO matches or beats every FASE-based scheme in every
 * configuration, especially at high thread counts; Mnemosyne wins on
 * low-parallelism structures at low thread counts (it logs no lock
 * operations) but saturates; the hash map separates scalable (iDO)
 * from runtime-synchronization-bound (Atlas, Mnemosyne) designs.
 * The ido_eager_locks row is iDO with the paper's fence per lock
 * operation; the ido row records the locks of a FASE's store-free
 * prefix lazily (RuntimeConfig::lazy_lock_records).
 */
#include <vector>

#include "bench/bench_util.h"
#include "ds/workload.h"

using namespace ido;
using namespace ido::bench;

int
main()
{
    const double secs = bench_seconds();
    // Every runtime at its stock configuration, plus iDO with the
    // paper's fence per lock operation (ido_eager_locks).
    struct RunCfg
    {
        baselines::RuntimeKind kind;
        const char* label;
        bool lazy_lock_records;
    };
    std::vector<RunCfg> run_cfgs;
    for (auto kind : baselines::all_runtime_kinds())
        run_cfgs.push_back({kind, baselines::runtime_kind_name(kind), true});
    run_cfgs.push_back(
        {baselines::RuntimeKind::kIdo, "ido_eager_locks", false});
    const ds::DsKind structures[] = {
        ds::DsKind::kStack, ds::DsKind::kQueue,
        ds::DsKind::kOrderedList, ds::DsKind::kHashMap};

    for (const ds::DsKind s : structures) {
        print_header(
            (std::string("Fig.7 ") + ds::ds_kind_name(s)).c_str());
        std::printf("%-15s %8s %10s   %s\n", "runtime", "threads",
                    "Mops/s", "persist profile");
        for (const RunCfg& rc : run_cfgs) {
            for (uint32_t threads : thread_sweep()) {
                BenchWorld world(rc.kind, 512u << 20, 0, 4u << 20, true,
                                 rc.lazy_lock_records);
                ds::WorkloadConfig cfg;
                cfg.ds = s;
                cfg.threads = threads;
                cfg.duration_seconds = secs;
                cfg.key_range = 512;
                cfg.map_buckets = 64;
                cfg.pin_threads = false;
                const uint64_t root =
                    ds::workload_setup(*world.runtime, cfg);
                persist_counters_reset_global();
                const auto result =
                    ds::workload_run(*world.runtime, root, cfg);
                std::printf("%-15s %8u %10.3f   %s\n", rc.label,
                            threads, result.mops(),
                            persist_profile(result.total_ops).c_str());
                emit_json_row(
                    (std::string("fig7_") + ds::ds_kind_name(s))
                        .c_str(),
                    rc.label, threads, result.total_ops, secs);
            }
        }
    }
    return 0;
}
