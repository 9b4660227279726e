/**
 * @file
 * The layer ladder: one workload stream replayed into each layer's
 * public entry point on its own.
 *
 *   L0  flush+fence        RealDomain::flush/fence
 *   L1  +NvHeap            NvHeap::alloc/free_block
 *   L2  +FASE              MemcachedMini::get/set/del on IdoRuntime
 *   L3  +group commit      MemcParser::feed/next + GroupCommit::run_batch
 *   L4  +server            forked ido_serve (net::Server) over loopback
 *   L5  +router            in-process cluster::Router in front of L4
 *   L6  +replica           L5 with the node replicating to a replica
 *
 * L2..L6 are measured as nanoseconds per request of the stream.  L0
 * and L1 are the shares of L2 spent in persistence and allocation:
 * L2's fence count times one flush+fence pair, plus its allocation and
 * free counts times one alloc / free_block.  Self time of rung n is
 * L(n) - L(n-1), so the self times add up to the top rung.
 */
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>

#include "ido/ido_runtime.h"
#include "net/group_commit.h"
#include "net/memc_protocol.h"
#include "nvm/nv_heap.h"
#include "nvm/persist_domain.h"
#include "nvm/persistent_heap.h"
#include "stats/metrics.h"
#include "stats/persist_stats.h"
#include "workloads.h"

namespace kvbench {

namespace {

constexpr uint32_t kLadderOps = 65536;
constexpr uint32_t kProbeOps = 1024; ///< per kind the stream lacks

using ido::net::MemcOp;
using ido::net::MemcRequest;

/** Median ns of one flush+fence pair over a line-aligned buffer. */
double
time_persist(Spans& spans)
{
    constexpr size_t kLines = 4096;
    constexpr int kPairs = 65536;
    auto* buf = static_cast<uint64_t*>(std::aligned_alloc(64, kLines * 64));
    ido::nvm::RealDomain dom;
    std::vector<double> reps;
    for (int r = 0; r < 5; ++r) {
        const uint64_t t0 = now_ns();
        for (int i = 0; i < kPairs; ++i) {
            uint64_t* line = buf + (i % kLines) * 8;
            *line = static_cast<uint64_t>(i);
            dom.flush(line, sizeof *line);
            dom.fence();
        }
        const uint64_t t1 = now_ns();
        spans.add(spans.open(), "L0.flush+fence", 0, t0, t1, 0, r);
        reps.push_back(double(t1 - t0) / kPairs);
    }
    std::free(buf);
    return median(reps);
}

/** Median ns of one NvHeap::alloc and one free_block of an item. */
void
time_alloc_free(Spans& spans, double* alloc_ns, double* free_ns)
{
    constexpr size_t kBlocks = 8192;
    ido::nvm::PersistentHeap heap({.size = size_t{64} << 20});
    ido::nvm::RealDomain dom;
    ido::nvm::NvHeap nv(heap, dom);
    std::vector<uint64_t> offs(kBlocks);
    std::vector<double> a, f;
    for (int r = 0; r < 9; ++r) {
        const uint64_t t0 = now_ns();
        for (uint64_t& off : offs)
            off = nv.alloc(sizeof(ido::apps::McItem), dom);
        const uint64_t t1 = now_ns();
        for (uint64_t off : offs)
            nv.free_block(off, dom);
        const uint64_t t2 = now_ns();
        spans.add(spans.open(), "L1.alloc", 0, t0, t1, 0, r);
        spans.add(spans.open(), "L1.free_block", 0, t1, t2, 0, r);
        a.push_back(double(t1 - t0) / kBlocks);
        f.push_back(double(t2 - t1) / kBlocks);
    }
    *alloc_ns = median(a);
    *free_ns = median(f);
}

/** An anonymous heap with an iDO runtime and a prefilled cache. */
struct Store
{
    Store(const std::vector<uint32_t>& keys, uint64_t seed, Model* model)
        : heap({.size = size_t{128} << 20}),
          rt(heap, dom, ido::rt::RuntimeConfig{})
    {
        ido::apps::MemcachedMini::register_programs();
        th = rt.make_thread();
        root = ido::apps::MemcachedMini::create(*th, 1,
                                                buckets_for(keys.size(), 1));
        cache = std::make_unique<ido::apps::MemcachedMini>(heap, root);
        for (uint32_t k : keys) {
            const Op op{OpKind::kSet, k, prefill_value(seed, k)};
            const auto [lo, hi] = ido::net::memc_key_words(key_text(k));
            cache->set(*th, lo, hi, op.value);
            model->apply(op);
        }
    }

    KeyState call(const Op& op, uint64_t lo, uint64_t hi)
    {
        return memc_call(*th, *cache, op, lo, hi);
    }

    ido::nvm::PersistentHeap heap;
    ido::nvm::RealDomain dom;
    ido::IdoRuntime rt;
    std::unique_ptr<ido::rt::RuntimeThread> th;
    uint64_t root = 0;
    std::unique_ptr<ido::apps::MemcachedMini> cache;
};

struct FaseRung
{
    double ns_per_req = 0;
    double kind_ns[3] = {};     ///< mean call time per OpKind
    double kind_fences[3] = {}; ///< mean fences per call per OpKind
    double fences_per_req = 0;
    double allocs_per_req = 0, frees_per_req = 0;
};

/** L2: the stream through MemcachedMini, one call at a time. */
FaseRung
fase_rung(const std::vector<Op>& stream, const std::vector<uint32_t>& keys,
          const RunConfig& cfg, const WorkloadSpec& spec, Spans& spans,
          uint64_t* failed)
{
    static const char* const kNames[] = {"L2.get", "L2.set", "L2.delete"};
    Model model(spec.keys);
    Store s(keys, cfg.seed, &model);
    std::vector<std::pair<uint64_t, uint64_t>> words;
    for (const Op& op : stream)
        words.push_back(ido::net::memc_key_words(key_text(op.key)));

    auto& reg = ido::MetricsRegistry::instance();
    const uint64_t allocs0 = reg.counter_value("nvheap.alloc");
    const uint64_t frees0 = reg.counter_value("nvheap.free");
    ido::persist_counters_flush_tls();
    double ns[3] = {}, fences[3] = {}, count[3] = {};
    FaseRung r;
    const uint64_t rung_span = spans.open();
    const uint64_t t_start = now_ns();
    const auto one = [&](const Op& op, uint64_t lo, uint64_t hi, uint64_t req) {
        const uint64_t f0 = ido::tls_persist_counters().fences;
        const uint64_t t0 = now_ns();
        const KeyState got = s.call(op, lo, hi);
        const uint64_t t1 = now_ns();
        const int k = static_cast<int>(op.kind);
        ns[k] += double(t1 - t0);
        fences[k] += double(ido::tls_persist_counters().fences - f0);
        ++count[k];
        *failed += !check_reply(model, op, got);
        model.apply(op);
        spans.add(spans.open(), kNames[k], 0, t0, t1, rung_span, req);
    };
    for (size_t i = 0; i < stream.size(); ++i)
        one(stream[i], words[i].first, words[i].second, i);
    const uint64_t t_end = now_ns();
    spans.add(rung_span, "L2", 0, t_start, t_end, 0, 0);
    const double n = double(stream.size());
    r.ns_per_req = double(t_end - t_start) / n;
    r.fences_per_req = double(ido::tls_persist_counters().fences) / n;
    r.allocs_per_req = double(reg.counter_value("nvheap.alloc") - allocs0) / n;
    r.frees_per_req = double(reg.counter_value("nvheap.free") - frees0) / n;

    // Kinds the stream lacks get a probe on its keys, outside the rung.
    for (int k = 0; k < 3; ++k) {
        if (count[k] >= kProbeOps)
            continue;
        for (uint32_t i = 0; i < kProbeOps; ++i) {
            const Op op{static_cast<OpKind>(k), keys[i % keys.size()],
                        prefill_value(cfg.seed + 1, i)};
            const auto [lo, hi] = ido::net::memc_key_words(key_text(op.key));
            one(op, lo, hi, kLadderOps + i);
        }
    }
    for (int k = 0; k < 3; ++k) {
        r.kind_ns[k] = count[k] ? ns[k] / count[k] : 0;
        r.kind_fences[k] = count[k] ? fences[k] / count[k] : 0;
    }
    return r;
}

/** L3: parse each burst's wire bytes, then run it as one group commit. */
void
group_rung(const std::vector<Op>& stream, const std::vector<uint32_t>& keys,
           const RunConfig& cfg, const WorkloadSpec& spec, Spans& spans,
           uint64_t* failed, double* parse_ns_per_req, double* batch_ns,
           double* ns_per_req)
{
    Model model(spec.keys);
    Store s(keys, cfg.seed, &model);
    ido::net::GroupCommit gc(*s.th, kDepth, 0);
    const ido::net::GroupCommit::Exec exec =
        [&](const ido::net::ShardJob& job) -> std::string {
        const MemcRequest& rq = job.req;
        const auto [lo, hi] = ido::net::memc_key_words(rq.key);
        switch (rq.op) {
        case MemcOp::kSet:
            s.cache->set(*s.th, lo, hi, rq.value);
            return ido::net::memc_reply_stored();
        case MemcOp::kGet: {
            uint64_t v = 0;
            return s.cache->get(*s.th, lo, hi, &v)
                       ? ido::net::memc_reply_value(rq.key, rq.flags, v)
                       : ido::net::memc_reply_miss();
        }
        case MemcOp::kDelete:
            return ido::net::memc_reply_deleted(s.cache->del(*s.th, lo, hi));
        default:
            return ido::net::memc_reply_error();
        }
    };

    uint64_t parse_ns = 0, run_ns = 0, batches = 0;
    std::string wire;
    std::vector<ido::net::ShardJob> jobs;
    std::vector<ido::net::ShardReply> replies;
    ReplyReader reader;
    const uint64_t rung_span = spans.open();
    const uint64_t t_start = now_ns();
    for (size_t b = 0; b < stream.size(); b += kDepth) {
        const size_t e = std::min(stream.size(), b + kDepth);
        wire.clear();
        for (size_t i = b; i < e; ++i)
            append_wire(stream[i], &wire);
        jobs.clear();
        replies.clear();
        const uint64_t t0 = now_ns();
        ido::net::MemcParser parser;
        parser.feed(wire.data(), wire.size());
        ido::net::ShardJob job;
        while (parser.next(&job.req)) {
            job.seq = jobs.size();
            jobs.push_back(job);
        }
        const uint64_t t1 = now_ns();
        gc.run_batch(jobs, exec, &replies);
        const uint64_t t2 = now_ns();
        parse_ns += t1 - t0;
        run_ns += t2 - t1;
        ++batches;
        spans.add(spans.open(), "L3.parse", 0, t0, t1, rung_span, b);
        spans.add(spans.open(), "L3.run_batch", 0, t1, t2, rung_span, b);
        for (const auto& r : replies)
            reader.feed(r.data.data(), r.data.size());
        for (size_t i = b; i < e; ++i) {
            KeyState got;
            const bool ok = i - b < replies.size() &&
                            reader.next(stream[i].kind, &got) ==
                                ReplyReader::Status::kOk &&
                            check_reply(model, stream[i], got);
            *failed += !ok;
            model.apply(stream[i]);
        }
    }
    const uint64_t t_end = now_ns();
    spans.add(rung_span, "L3", 0, t_start, t_end, 0, 0);
    const double n = double(stream.size());
    *parse_ns_per_req = double(parse_ns) / n;
    *batch_ns = double(run_ns) / double(batches);
    *ns_per_req = double(parse_ns + run_ns) / n;
}

/**
 * L4..L6: the stream over one loopback connection in kDepth-deep
 * bursts, to a fresh forked node (1 shard, K = kDepth), optionally
 * through an in-process router and with a replica.
 */
double
socket_rung(const std::vector<Op>& stream, const std::vector<uint32_t>& keys,
            const RunConfig& cfg, const WorkloadSpec& spec, int rung,
            Spans& spans, uint64_t* attempted, uint64_t* failed,
            NodeStats* node)
{
    const std::string dir = cfg.work_dir + "/ladder-L" + std::to_string(rung);
    double ns_per_req = 0;
    {
        NodeSet nodes(cfg, dir,
                      NodeSet::Options{.shards = 1,
                                       .replicate = rung >= 6,
                                       .routed = rung >= 5,
                                       .keys = keys.size()});
        ido::cluster::NodeSupervisor& sup = nodes.sup();
        Model model(spec.keys);
        Spans quiet(false);
        Conn conn;
        const auto run = [&]() -> bool {
            if (!nodes.start() || !conn.connect(nodes.client_port()))
                return false;
            Pipeline fill(model, quiet, 64);
            fill.add_lane(&conn, [&, i = size_t{0}](Op* op) mutable {
                if (i >= keys.size())
                    return false;
                *op = {OpKind::kSet, keys[i], prefill_value(cfg.seed, keys[i])};
                ++i;
                return true;
            });
            const PhaseStats f = fill.run(UINT64_MAX, 0, false);
            *attempted += f.attempted;
            *failed += f.failed;
            NodeStats a, b;
            if (fill.broken() || !scrape_node(sup.node_admin_port(0), &a))
                return false;
            Pipeline p(model, spans, kDepth);
            p.add_lane(&conn, [&, i = size_t{0}](Op* op) mutable {
                if (i >= stream.size())
                    return false;
                *op = stream[i++];
                return true;
            });
            static const char* const kRungs[] = {"L4", "L5", "L6"};
            const uint64_t t0 = now_ns();
            const PhaseStats st = p.run(UINT64_MAX, 0, false);
            spans.add(spans.open(), kRungs[rung - 4], 0, t0, now_ns(), 0, 0);
            *attempted += st.attempted;
            *failed += st.failed;
            ns_per_req = double(st.wall_ns) / double(stream.size());
            if (p.broken() || !scrape_node(sup.node_admin_port(0), &b))
                return false;
            *node = node_delta(a, b);
            return true;
        };
        if (!run())
            ++*failed;
        conn.close();
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return ns_per_req;
}

} // namespace

LayerMetrics
run_ladder(const RunConfig& cfg, const WorkloadSpec& spec, Spans& spans,
           uint64_t* attempted, uint64_t* failed)
{
    StreamGen gen(cfg.seed, 0, lane_slice(spec, 0), spec.mix);
    std::vector<Op> stream(kLadderOps);
    for (Op& op : stream)
        op = gen.next();
    std::vector<uint32_t> keys;
    for (const Op& op : stream)
        keys.push_back(op.key);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

    const double persist_ns = time_persist(spans);
    double alloc_ns = 0, free_ns = 0;
    time_alloc_free(spans, &alloc_ns, &free_ns);
    const FaseRung l2 = fase_rung(stream, keys, cfg, spec, spans, failed);
    *attempted += stream.size();
    double parse_ns = 0, batch_ns = 0, l3 = 0;
    group_rung(stream, keys, cfg, spec, spans, failed, &parse_ns, &batch_ns, &l3);
    *attempted += stream.size();
    NodeStats n4, n5, n6;
    const double l4 = socket_rung(stream, keys, cfg, spec, 4, spans, attempted, failed, &n4);
    const double l5 = socket_rung(stream, keys, cfg, spec, 5, spans, attempted, failed, &n5);
    const double l6 = socket_rung(stream, keys, cfg, spec, 6, spans, attempted, failed, &n6);

    const double l0 = l2.fences_per_req * persist_ns;
    const double l1 =
        l0 + l2.allocs_per_req * alloc_ns + l2.frees_per_req * free_ns;
    const double rungs[] = {l0, l1, l2.ns_per_req, l3, l4, l5, l6};

    LayerMetrics m;
    m["nvm.persist_ns"] = {persist_ns, "ns"};
    m["nvm.fences_per_set"] = {l2.kind_fences[1], "count"};
    m["nvm.fences_per_get"] = {l2.kind_fences[0], "count"};
    m["nvm.alloc_ns"] = {alloc_ns, "ns"};
    m["nvm.free_ns"] = {free_ns, "ns"};
    m["apps.get_ns"] = {l2.kind_ns[0], "ns"};
    m["apps.set_ns"] = {l2.kind_ns[1], "ns"};
    m["apps.del_ns"] = {l2.kind_ns[2], "ns"};
    m["runtime.compute_ns"] = {l2.ns_per_req - l2.fences_per_req * persist_ns, "ns"};
    m["net.parse_ns_per_req"] = {parse_ns, "ns"};
    m["net.batch_ns"] = {batch_ns, "ns"};
    m["net.server_self_ns_per_req"] = {l4 - l3, "ns"};
    m["net.reqs_per_fence"] = {
        n4.group_batches ? n4.group_requests / n4.group_batches : 0, "count"};
    m["cluster.router_self_ns_per_req"] = {l5 - l4, "ns"};
    m["cluster.replica_flight_ns_per_batch"] = {
        n6.replica_batches ? (l6 - l5) * double(stream.size()) / n6.replica_batches
                           : 0,
        "ns"};
    m["cluster.replica_ack_p50_us"] = {n6.replica_ack_p50_ns / 1e3, "us"};
    // Queue / exec / publish of the L4 node; run_trace overrides them
    // with the workload's own node where it has one.
    m["net.queue_p50_us"] = {n4.queue_p50_ns / 1e3, "us"};
    m["net.exec_p50_us"] = {n4.exec_p50_ns / 1e3, "us"};
    m["net.publish_p50_us"] = {n4.publish_p50_ns / 1e3, "us"};
    for (int i = 0; i < 7; ++i)
        m["ladder.L" + std::to_string(i) + "_self_ns_per_req"] = {
            rungs[i] - (i ? rungs[i - 1] : 0), "ns"};
    m["ladder.top_ns_per_req"] = {rungs[spec.top_rung], "ns"};
    return m;
}

} // namespace kvbench
