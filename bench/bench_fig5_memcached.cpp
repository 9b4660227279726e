/**
 * @file
 * Figure 5 reproduction: Memcached throughput (millions of data
 * structure operations per second) as a function of thread count, for
 * the insertion-intensive (50% set / 50% get) and search-intensive
 * (10% set / 90% get) memaslap workloads, across all runtimes.
 *
 * Paper shape: iDO outperforms all FASE-based competitors by 2x or
 * more; Mnemosyne benefits from memcached 1.2.4's coarse locking; no
 * system scales past ~8 threads.  The persist-event profile column is
 * the machine-independent evidence: iDO's fences/op sit well below
 * Atlas's and far below JUSTDO's.  The ido_eager_locks row is iDO with
 * the paper's fence per lock operation; the ido row records the locks
 * of a FASE's store-free prefix lazily, so its gets pay no fence.
 *
 * IDO_BENCH_TRANSPORT=socket drives the same mixes through a real
 * ido-serve instance over loopback TCP (batch=1 so the protocol under
 * measurement stays the stock per-request one; bench_server owns the
 * group-commit ablation).  Default is the paper's in-process path.
 * Every printed row and JSON line states the transport used.
 */
#include <thread>

#include "apps/memcached_client.h"
#include "bench/bench_util.h"
#include "net/server.h"

using namespace ido;
using namespace ido::bench;

namespace {

apps::McTransport
transport_from_env()
{
    const char* s = std::getenv("IDO_BENCH_TRANSPORT");
    if (s && std::string(s) == "socket")
        return apps::McTransport::kSocket;
    return apps::McTransport::kInProcess;
}

} // namespace

int
main()
{
    const double secs = bench_seconds();
    const apps::McTransport transport = transport_from_env();
    struct Mix
    {
        const char* name;
        uint32_t set_pct;
    };
    const Mix mixes[] = {{"insertion-intensive (50/50)", 50},
                         {"search-intensive (10/90)", 10}};

    for (const Mix& mix : mixes) {
        print_header((std::string("Fig.5 memcached, ") + mix.name
                      + ", transport=" + apps::transport_name(transport))
                         .c_str());
        std::printf("%-15s %8s %10s %9s   %s\n", "runtime", "threads",
                    "Mops/s", "transport", "persist profile");
        // Every runtime at its stock configuration, plus two iDO
        // ablations: flush elision off (ido_noelide) and the paper's
        // fence per lock operation (ido_eager_locks).  CI's fence-diet
        // gate compares each against the ido row.
        struct RunCfg
        {
            baselines::RuntimeKind kind;
            const char* label;
            bool flush_elision;
            bool lazy_lock_records;
        };
        std::vector<RunCfg> run_cfgs;
        for (auto kind : baselines::all_runtime_kinds())
            run_cfgs.push_back(
                {kind, baselines::runtime_kind_name(kind), true, true});
        run_cfgs.push_back(
            {baselines::RuntimeKind::kIdo, "ido_noelide", false, true});
        run_cfgs.push_back({baselines::RuntimeKind::kIdo,
                            "ido_eager_locks", true, false});
        for (const RunCfg& rc : run_cfgs) {
            const auto kind = rc.kind;
            for (uint32_t threads : thread_sweep()) {
                BenchWorld world(kind, 512u << 20, 0, 4u << 20,
                                 rc.flush_elision, rc.lazy_lock_records);
                apps::MemcachedWorkloadConfig cfg;
                cfg.threads = threads;
                cfg.set_pct = mix.set_pct;
                cfg.key_space = 10000;
                cfg.duration_seconds = secs;
                cfg.transport = transport;

                apps::MemcachedWorkloadResult result;
                if (transport == apps::McTransport::kSocket) {
                    apps::MemcachedMini::register_programs();
                    net::ServerConfig scfg;
                    scfg.shards = static_cast<uint32_t>(cfg.nshards);
                    scfg.batch_limit = 1; // stock per-request protocol
                    scfg.nbuckets = static_cast<uint32_t>(cfg.nbuckets);
                    net::Server server(*world.runtime, scfg);
                    std::thread srv([&] { server.run(); });
                    cfg.port = server.port();
                    if (!apps::memcached_prefill_socket(cfg)) {
                        std::fprintf(stderr,
                                     "fig5: socket prefill failed\n");
                        server.stop();
                        srv.join();
                        return 1;
                    }
                    persist_counters_reset_global();
                    result = apps::memcached_run(*world.runtime, 0, cfg);
                    server.stop(); // joins shards: TLS counters flushed
                    srv.join();
                } else {
                    const uint64_t root =
                        apps::memcached_setup(*world.runtime, cfg);
                    persist_counters_reset_global();
                    result =
                        apps::memcached_run(*world.runtime, root, cfg);
                }
                std::printf("%-15s %8u %10.3f %9s   %s\n", rc.label,
                            threads, result.mops(),
                            apps::transport_name(transport),
                            persist_profile(result.total_ops).c_str());
                const std::string row_name =
                    std::string(mix.set_pct == 50
                                    ? "fig5_memcached_5050"
                                    : "fig5_memcached_1090")
                    + "_" + apps::transport_name(transport);
                emit_json_row(row_name.c_str(), rc.label, threads,
                              result.total_ops, secs);
            }
        }
    }
    return 0;
}
