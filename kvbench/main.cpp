/**
 * @file
 * kvbench: the repository benchmark.
 *
 *   kvbench --workload NAME --seed N --seconds S --trace 0|1
 *           --serve-bin PATH --work-dir DIR [--commit SHA]
 *   kvbench --selftest
 *
 * --trace 0 runs the workload (several set-ups, each measured for its
 * share of S, then restarted) and prints every end-to-end metric.
 * --trace 1 runs the workload untraced for S/2 seconds with one
 * set-up, then the layer ladder and the workload again with spans
 * recorded, and prints the per-layer metrics, the ladder residual and
 * the tracing overhead; the spans go to DIR/trace-NAME-SEED.json
 * (Chrome trace-event format).  Every run ends with a tags line:
 * machine, build, seed and the host's steal time over the run.
 *
 * The last stdout line is the result object: correct, attempted,
 * failed and metrics.  Exit status 3 means an acknowledged write was
 * lost across a restart.
 */
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "workloads.h"

namespace kvbench {
int run_selftest();
}

using namespace kvbench;

namespace {

/**
 * Host steal time above which a measurement is set aside.  On a 4-vCPU
 * virtual machine, socket-workload runs at 9-25% steal ran up to 45%
 * slower than runs of the same code at under 2%.
 */
constexpr double kMaxStealPct = 5.0;

/**
 * Keep the measurements taken while the host stole at most kMaxStealPct
 * of the machine's CPU time.  When fewer than a quarter of them (at
 * least one) qualify, keep them all and return false: the figure then
 * reflects the host's other tenants, and the run is tagged not
 * comparable.
 */
template <typename T, typename Span>
bool
keep_quiet(std::vector<T>* xs, const StealTimeline& steal, Span span)
{
    std::vector<T> quiet;
    for (const T& x : *xs) {
        const auto [t0, t1] = span(x);
        if (steal.steal_pct(t0, t1) <= kMaxStealPct)
            quiet.push_back(x);
    }
    if (quiet.size() < std::max<size_t>(1, (xs->size() + 3) / 4))
        return false;
    *xs = std::move(quiet);
    return true;
}

/** The outcome with only its quiet windows, set-ups and restarts. */
Outcome
quiet_part(Outcome o, const StealTimeline& steal, bool* comparable)
{
    const auto timed = [](const Timed& t) { return std::pair{t.start_ns, t.end_ns}; };
    *comparable &= keep_quiet(&o.windows, steal, [](const Window& w) {
        return std::pair{w.start_ns, w.start_ns + w.ns};
    });
    *comparable &= keep_quiet(&o.setup_s, steal, timed);
    *comparable &= keep_quiet(&o.recovery_s, steal, timed);
    return o;
}

double
median_of(const std::vector<Timed>& ts)
{
    std::vector<double> v;
    for (const Timed& t : ts)
        v.push_back(t.value);
    return median(std::move(v));
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    uint64_t samples; ///< observations behind the value
};

std::string
num(double v)
{
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: kvbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --serve-bin PATH --work-dir DIR [--commit SHA]\n"
                 "       kvbench --selftest\n"
                 "workloads: serve_read_mostly fase_write_heavy "
                 "routed_replicated_write crash_restart\n");
    return 2;
}

/** Median over windows of durably acked requests per second. */
double
throughput(const Outcome& o)
{
    std::vector<double> per_window;
    for (const Window& w : o.windows)
        if (w.ns > 0)
            per_window.push_back(double(w.acked) * 1e9 / double(w.ns));
    return median(per_window);
}

/**
 * Latency of one op kind: the median over windows of each window's mean
 * (q = 0) or percentile q.  False when no window has enough samples.
 */
bool
latency(const Outcome& o, const char* name, OpKind kind, double q,
        std::vector<Metric>* out)
{
    std::vector<double> per_window;
    uint64_t samples = 0;
    for (const Window& w : o.windows) {
        double ns = 0;
        samples += w.of(kind).count();
        if (q == 0 ? w.of(kind).mean(&ns) : w.of(kind).percentile(q, &ns))
            per_window.push_back(ns / 1e3);
    }
    if (per_window.empty())
        return false;
    out->push_back({name, median(per_window), "us", samples});
    return true;
}

/**
 * End-to-end metrics; false when one could not be measured.  The
 * percentile latencies go to *tail: they are printed, but the benchmark
 * does not bound them, because the shape of the latency distribution
 * changes with the host's load while its mean follows throughput (see
 * README.md, "Noise").
 */
bool
end_to_end(const Outcome& o, std::vector<Metric>* out, std::vector<Metric>* tail)
{
    bool complete = true;
    out->push_back({"throughput_rps", throughput(o), "1/s", o.timed_acks});
    complete &= latency(o, "get_mean_us", OpKind::kGet, 0, out);
    complete &= latency(o, "set_mean_us", OpKind::kSet, 0, out);
    complete &= latency(o, "get_p50_us", OpKind::kGet, 0.50, tail);
    complete &= latency(o, "set_p50_us", OpKind::kSet, 0.50, tail);
    complete &= latency(o, "get_p99_us", OpKind::kGet, 0.99, tail);
    complete &= latency(o, "set_p99_us", OpKind::kSet, 0.99, tail);
    out->push_back({"setup_s", median_of(o.setup_s), "s", o.setup_s.size()});
    out->push_back({"recovery_s", median_of(o.recovery_s), "s", o.recovery_s.size()});
    const double reqs = double(std::max<uint64_t>(1, o.persist_reqs));
    out->push_back({"fences_per_req", o.fences / reqs, "count", o.persist_reqs});
    out->push_back({"flushes_per_req", o.flushes / reqs, "count", o.persist_reqs});
    out->push_back({"nv_bytes_per_item", o.nv_bytes_per_item, "bytes", 1});
    out->push_back({"peak_rss_mb", o.peak_rss_mb, "MiB", 1});
    for (const Metric& m : *out)
        complete &= m.value > 0;
    return complete;
}

/** {"name": {"value": v, "unit": u}, ...} */
std::string
metrics_json(const std::vector<Metric>& ms)
{
    std::string out = "{";
    for (size_t i = 0; i < ms.size(); ++i)
        out += (i ? ",\"" : "\"") + ms[i].name + "\":{\"value\":" + num(ms[i].value) +
               ",\"unit\":\"" + ms[i].unit + "\"}";
    return out + "}";
}

void
print_result(const std::vector<Metric>& ms, const std::vector<Metric>& tail,
             bool correct, uint64_t attempted, uint64_t failed)
{
    for (const std::vector<Metric>* list : {&ms, &tail})
        for (const Metric& m : *list)
            std::printf("  %-40s %16.4f %-6s (n=%llu)\n", m.name.c_str(), m.value,
                        m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    std::string detail = "{\"kvbench_samples\":{";
    for (size_t i = 0; i < ms.size(); ++i)
        detail += (i ? ",\"" : "\"") + ms[i].name + "\":" + std::to_string(ms[i].samples);
    detail += "},\"kvbench_tail\":" + metrics_json(tail) + ",\"error_rate\":" +
              num(attempted ? double(failed) / double(attempted) : 1.0) + "}";
    std::printf("%s\n", detail.c_str());
    std::string out = "{\"correct\":";
    out += correct ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(attempted) +
           ",\"failed\":" + std::to_string(failed) +
           ",\"metrics\":" + metrics_json(ms) + "}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char** argv)
{
    RunConfig cfg;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--selftest")
            return run_selftest();
        if (i + 1 >= argc)
            return usage();
        const std::string v = argv[++i];
        if (a == "--workload")
            cfg.workload = v;
        else if (a == "--seed")
            cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            cfg.seconds = std::strtod(v.c_str(), nullptr);
        else if (a == "--trace")
            cfg.trace = v == "1";
        else if (a == "--serve-bin")
            cfg.serve_bin = v;
        else if (a == "--work-dir")
            cfg.work_dir = v;
        else if (a == "--commit")
            cfg.commit = v;
        else
            return usage();
    }
    const WorkloadSpec* spec = find_workload(cfg.workload);
    if (spec == nullptr || cfg.serve_bin.empty() || cfg.work_dir.empty() ||
        !(cfg.seconds > 0))
        return usage();
    std::filesystem::create_directories(cfg.work_dir);
    const CpuTicks ticks0 = cpu_ticks();
    const StealTimeline steal;
    bool comparable = true;

    // The socket workloads wait on wake-ups of the server and router
    // threads, which the spinners make independent of how busy the host
    // is; the in-process workload never sleeps, so for it they would
    // only cost throughput (see README.md, "Noise").
    std::optional<IdleSpinners> spinners;
    if (!spec->in_process)
        spinners.emplace();
    std::vector<Metric> ms, tail;
    uint64_t attempted = 0, failed = 0;
    bool lost_ack = false, complete = true;
    if (!cfg.trace) {
        Spans off(false);
        const Outcome all = run_workload(cfg, *spec, cfg.seconds, spec->setups, off);
        if (all.setup_s.size() < size_t(spec->setups)) {
            std::fprintf(stderr, "kvbench: %s set-up failed\n", spec->name);
            return 1;
        }
        const Outcome o = quiet_part(all, steal, &comparable);
        complete = end_to_end(o, &ms, &tail);
        attempted = o.attempted;
        failed = o.failed;
        lost_ack = o.lost_ack;
    } else {
        Spans off(false), spans(true);
        const Outcome u = quiet_part(run_workload(cfg, *spec, cfg.seconds / 2, 1, off),
                                     steal, &comparable);
        LayerMetrics lm = run_ladder(cfg, *spec, spans, &attempted, &failed);
        const Outcome t = quiet_part(run_workload(cfg, *spec, cfg.seconds / 2, 1, spans),
                                     steal, &comparable);
        if (u.setup_s.empty() || t.setup_s.empty()) {
            std::fprintf(stderr, "kvbench: %s set-up failed\n", spec->name);
            return 1;
        }
        attempted += u.attempted + t.attempted;
        failed += u.failed + t.failed;
        lost_ack = u.lost_ack || t.lost_ack;
        const double thr_u = throughput(u), thr_t = throughput(t);
        const double e2e_ns = thr_u > 0 ? 1e9 / thr_u : 0;
        lm["ladder.e2e_ns_per_req"] = {e2e_ns, "ns"};
        lm["ladder.residual_ns_per_req"] = {
            e2e_ns - lm["ladder.top_ns_per_req"].value, "ns"};
        lm["trace.overhead_pct"] = {
            thr_u > 0 ? (thr_u - thr_t) / thr_u * 100.0 : 0, "%"};
        lm["client.busy_frac"] = {u.busy_frac, "ratio"};
        if (u.has_node) {
            lm["net.queue_p50_us"] = {u.node.queue_p50_ns / 1e3, "us"};
            lm["net.exec_p50_us"] = {u.node.exec_p50_ns / 1e3, "us"};
            lm["net.publish_p50_us"] = {u.node.publish_p50_ns / 1e3, "us"};
        }
        lm["ido.recovery.leak_reclaim_ns"] = {u.rec.leak_reclaim_ns, "ns"};
        lm["ido.recovery.heap_gc_ns"] = {u.rec.heap_gc_ns, "ns"};
        lm["ido.recovery.scan_log_ns"] = {u.rec.scan_log_ns, "ns"};
        lm["ido.recovery.fases_resumed"] = {u.rec.fases_resumed, "count"};
        lm["ido.recovery.spawn_to_listen_ns"] = {u.rec.spawn_to_listen_ns, "ns"};
        for (const auto& [name, m] : lm)
            ms.push_back({name, m.value, m.unit, 1});
        const std::string path = cfg.work_dir + "/trace-" + spec->name + "-" +
                                 std::to_string(cfg.seed) + ".json";
        if (spans.write_chrome(path))
            std::printf("# trace: %s (%zu spans, %llu dropped)\n", path.c_str(),
                        spans.recorded(),
                        static_cast<unsigned long long>(spans.dropped()));
    }
    std::printf("{\"kvbench_tags\":%s,\"workload\":\"%s\",\"trace\":%d}\n",
                machine_tags(cfg.seed, cfg.commit, steal_pct(ticks0, cpu_ticks()),
                             comparable)
                    .c_str(),
                spec->name, cfg.trace ? 1 : 0);
    print_result(ms, tail, complete && failed == 0 && !lost_ack, attempted, failed);
    if (lost_ack) {
        std::fprintf(stderr, "kvbench: an acknowledged write was lost\n");
        return 3;
    }
    return 0;
}
