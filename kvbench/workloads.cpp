#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "ido/ido_runtime.h"
#include "net/admin.h"
#include "net/memc_protocol.h"
#include "nvm/persist_domain.h"
#include "nvm/persistent_heap.h"
#include "nvm/root_registry.h"
#include "stats/metrics.h"
#include "stats/persist_stats.h"
#include "stats/recovery_timeline.h"

namespace kvbench {

namespace {

// name, keys, mix{set, del}, shards, in_process, routed, replicate,
// crash_cycles, top_rung, setups
constexpr WorkloadSpec kWorkloads[] = {
    {"serve_read_mostly", 16384, {125, 0}, 2, false, false, false, false, 4, 5},
    {"fase_write_heavy", 1u << 20, {400, 200}, 4, true, false, false, false, 2, 3},
    {"routed_replicated_write", 16384, {500, 0}, 1, false, true, true, false, 6, 5},
    {"crash_restart", 200u * 1024, {800, 200}, 2, false, false, false, true, 4, 3},
};

constexpr uint64_t kWarmupOps = 4096;      ///< per lane, socket workloads
constexpr uint64_t kFaseWarmupOps = 65536; ///< per lane, in-process
constexpr uint64_t kCycleAckedOps = 2048;  ///< per lane, crash cycle
constexpr int kRestartCycles = 6;          ///< per set-up, serve / routed
constexpr int kFaseRestartCycles = 2;      ///< per set-up
constexpr uint32_t kVerifySample = 256; ///< untouched keys per crash audit

Pipeline::Source
prefill_source(Slice s, uint64_t seed)
{
    return [k = s.begin, s, seed](Op* op) mutable {
        if (k >= s.end)
            return false;
        *op = {OpKind::kSet, k, prefill_value(seed, k)};
        ++k;
        return true;
    };
}

/** Ops from a lane's generator; `limit` 0 = unlimited. */
Pipeline::Source
gen_source(StreamGen* gen, uint64_t limit, std::vector<uint32_t>* touched)
{
    return [gen, limit, touched, n = uint64_t{0}](Op* op) mutable {
        if (limit != 0 && n >= limit)
            return false;
        ++n;
        *op = gen->next();
        if (touched)
            touched->push_back(op->key);
        return true;
    };
}

Pipeline::Source
get_source(std::vector<uint32_t> keys)
{
    return [keys = std::move(keys), i = size_t{0}](Op* op) mutable {
        if (i >= keys.size())
            return false;
        *op = {OpKind::kGet, keys[i++], 0};
        return true;
    };
}

/** One blocking get; false if the server did not answer. */
bool
get_once(Conn& c, uint32_t key, KeyState* got)
{
    std::string wire;
    append_wire({OpKind::kGet, key, 0}, &wire);
    if (!c.send_all(wire))
        return false;
    ReplyReader r;
    for (;;) {
        const ReplyReader::Status s = r.next(OpKind::kGet, got);
        if (s == ReplyReader::Status::kOk)
            return true;
        if (s != ReplyReader::Status::kNeedMore || c.read_some(&r) <= 0)
            return false;
    }
}

void
account(const PhaseStats& st, Outcome* o)
{
    o->attempted += st.attempted;
    o->failed += st.failed;
}

/** Fold a timed phase into the outcome's totals. */
void
add_timed(const PhaseStats& st, Outcome* o)
{
    account(st, o);
    o->timed_acks += st.acked;
    o->timed_s += st.wall_ns / 1e9;
}

/** The full-length time slices of a continuous timed phase. */
void
add_windows(const PhaseStats& st, Outcome* o)
{
    for (const Window& w : st.windows)
        if (w.ns >= Window::kNs / 2)
            o->windows.push_back(w);
}

class Bench
{
  public:
    virtual ~Bench() = default;
    virtual bool setup(Outcome* o) = 0;
    virtual void measure(double seconds, Outcome* o) = 0;
    virtual void recover(Outcome* o) = 0;
};

// --- socket workloads: forked ido_serve (+ replica, + router) -----------

class NodeBench final : public Bench
{
  public:
    NodeBench(const RunConfig& cfg, const WorkloadSpec& spec,
              std::string dir, Spans& spans)
        : cfg_(cfg), spec_(spec), dir_(std::move(dir)), spans_(spans),
          model_(spec.keys), rng_(cfg.seed ^ 0xc3a5c85c97cb3127ull)
    {
        for (uint32_t l = 0; l < kLanes; ++l)
            gens_.emplace_back(cfg.seed, l, lane_slice(spec, l), spec.mix);
    }

    ~NodeBench() override
    {
        for (Conn& c : conns_)
            c.close();
        nodes_.reset();
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    bool setup(Outcome* o) override;
    void measure(double seconds, Outcome* o) override;
    void recover(Outcome* o) override;

  private:
    bool connect_all(uint16_t port);
    bool timed_restart(uint32_t probe, const std::vector<Op>& pending,
                       Outcome* o);
    PhaseStats verify(std::vector<uint32_t> keys[kLanes],
                      const std::map<uint32_t, std::vector<Op>>& pending,
                      bool timed, Outcome* o);
    void crash_cycles(double seconds, Outcome* o);
    void read_recovery(Outcome* o);

    const RunConfig& cfg_;
    const WorkloadSpec& spec_;
    std::string dir_;
    Spans& spans_;
    Spans quiet_{false};
    std::unique_ptr<NodeSet> nodes_;
    Conn conns_[kLanes];
    Model model_;
    std::vector<StreamGen> gens_;
    ido::Rng rng_;
};

bool
NodeBench::connect_all(uint16_t port)
{
    for (Conn& c : conns_)
        if (!c.connect(port))
            return false;
    return true;
}

bool
NodeBench::setup(Outcome* o)
{
    nodes_ = std::make_unique<NodeSet>(
        cfg_, dir_,
        NodeSet::Options{.shards = spec_.shards,
                         .replicate = spec_.replicate,
                         .routed = spec_.routed,
                         .heap_bytes = spec_.keys > 65536 ? (64u << 20) : (32u << 20),
                         .keys = spec_.keys});
    if (!nodes_->start())
        return false;
    if (!connect_all(nodes_->client_port()))
        return false;

    Pipeline fill(model_, quiet_, 64);
    for (uint32_t l = 0; l < kLanes; ++l)
        fill.add_lane(&conns_[l], prefill_source(lane_slice(spec_, l), cfg_.seed));
    account(fill.run(UINT64_MAX, 0, false), o);
    if (fill.broken())
        return false;

    Pipeline warm(model_, quiet_, kDepth);
    for (uint32_t l = 0; l < kLanes; ++l)
        warm.add_lane(&conns_[l], gen_source(&gens_[l], kWarmupOps, nullptr));
    account(warm.run(UINT64_MAX, 0, false), o);
    return !warm.broken();
}

void
NodeBench::measure(double seconds, Outcome* o)
{
    if (spec_.crash_cycles) {
        crash_cycles(seconds, o);
        return;
    }
    NodeStats a, b;
    const bool scraped = scrape_node(nodes_->sup().node_admin_port(0), &a);
    Pipeline p(model_, spans_, kDepth);
    for (uint32_t l = 0; l < kLanes; ++l)
        p.add_lane(&conns_[l], gen_source(&gens_[l], 0, nullptr));
    const PhaseStats st =
        p.run(now_ns() + static_cast<uint64_t>(seconds * 1e9), 0, true);
    add_timed(st, o);
    add_windows(st, o);
    if (scraped && scrape_node(nodes_->sup().node_admin_port(0), &b)) {
        o->node = node_delta(a, b);
        o->has_node = true;
        o->fences += o->node.fences;
        o->flushes += o->node.flushes;
        o->persist_reqs += st.acked;
        o->nv_bytes_per_item =
            b.arena_used_bytes / double(std::max<uint64_t>(1, model_.live_items()));
    }
    o->peak_rss_mb =
        std::max(o->peak_rss_mb, peak_rss_mb(nodes_->sup().node_pid(0)));
    o->busy_frac = st.wall_ns ? 1.0 - double(st.idle_ns) / st.wall_ns : 0;
}

bool
NodeBench::timed_restart(uint32_t probe, const std::vector<Op>& pending,
                         Outcome* o)
{
    for (Conn& c : conns_)
        c.close();
    // The heap file stands in for persistent memory, which has no page
    // cache: write the dead server's dirty pages back first, so the new
    // server's port-file fsyncs do not pay for them inside the timing.
    if (const int dir_fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY); dir_fd >= 0) {
        ::syncfs(dir_fd);
        ::close(dir_fd);
    }
    // restart_node() polls the port file every 10 ms; probing the
    // pinned port directly times the restart without that granularity.
    const uint16_t port = nodes_->sup().node_port(0);
    std::atomic<int> spawned{0}; // 1 = up, -1 = failed
    const uint64_t t0 = now_ns();
    std::thread spawner([&] { spawned = nodes_->sup().restart_node(0) ? 1 : -1; });
    Conn c;
    while (!c.connect(port, 1) && spawned.load() >= 0 &&
           now_ns() - t0 < 30'000'000'000ull)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    const uint64_t t_listen = now_ns();
    KeyState got;
    const bool answered = c.fd() >= 0 && get_once(c, probe, &got);
    const uint64_t t1 = now_ns();
    spawner.join();
    if (!answered || spawned.load() != 1)
        return false;
    ++o->attempted;
    if (!crash_state_ok(model_.at(probe), pending, got)) {
        ++o->failed;
        o->lost_ack = true;
    } else {
        model_.set(probe, got);
    }
    o->recovery_s.push_back({(t1 - t0) / 1e9, t0, t1});
    o->rec.spawn_to_listen_ns = double(t_listen - t0);
    return true;
}

/**
 * Read `keys` back directly from the node and audit them against the
 * model, allowing any prefix of the `pending` unacknowledged writes.
 * Wrong values and unanswered reads count as failed in the result.
 */
PhaseStats
NodeBench::verify(std::vector<uint32_t> keys[kLanes],
                  const std::map<uint32_t, std::vector<Op>>& pending,
                  bool timed, Outcome* o)
{
    if (!connect_all(nodes_->sup().node_port(0))) {
        ++o->failed;
        return {};
    }
    static const std::vector<Op> kNone;
    Pipeline p(model_, timed ? spans_ : quiet_, kDepth);
    p.set_checker([&](const Op& op, const KeyState& got) {
        const auto it = pending.find(op.key);
        if (!crash_state_ok(model_.at(op.key),
                            it == pending.end() ? kNone : it->second, got)) {
            o->lost_ack = true;
            return false;
        }
        model_.set(op.key, got);
        return true;
    });
    for (uint32_t l = 0; l < kLanes; ++l)
        p.add_lane(&conns_[l], get_source(std::move(keys[l])));
    return p.run(UINT64_MAX, 0, timed);
}

void
NodeBench::read_recovery(Outcome* o)
{
    std::string body;
    if (ido::net::admin_http_get(nodes_->sup().node_admin_port(0), "/recovery", &body))
        parse_recovery(body, &o->rec);
}

void
NodeBench::recover(Outcome* o)
{
    if (spec_.crash_cycles)
        return; // every cycle already restarted and audited the node
    for (int i = 0; i < kRestartCycles; ++i) {
        nodes_->sup().kill_node(0);
        if (!timed_restart(lane_slice(spec_, 0).begin + i, {}, o)) {
            ++o->failed;
            return;
        }
    }
    read_recovery(o);
    // Every key must read back exactly as last acknowledged.
    std::vector<uint32_t> keys[kLanes];
    for (uint32_t l = 0; l < kLanes; ++l) {
        const Slice s = lane_slice(spec_, l);
        for (uint32_t k = s.begin; k < s.end; ++k)
            keys[l].push_back(k);
    }
    account(verify(keys, {}, false, o), o);
}

void
NodeBench::crash_cycles(double seconds, Outcome* o)
{
    const uint64_t t_end = now_ns() + static_cast<uint64_t>(seconds * 1e9);
    std::vector<double> rss, bytes_per_item;
    uint64_t wall_ns = 0, idle_ns = 0;
    while (now_ns() < t_end) {
        // Each cycle is one measurement window of Parts A and B.
        Window cycle;
        const auto take = [&](const PhaseStats& st) {
            add_timed(st, o);
            cycle.add(st.pooled());
            wall_ns += st.wall_ns;
            idle_ns += st.idle_ns;
        };
        std::vector<uint32_t> touched[kLanes];
        // Part A: a fully acknowledged stream, for the persist profile.
        NodeStats a, b;
        const bool scraped = scrape_node(nodes_->sup().node_admin_port(0), &a);
        Pipeline pa(model_, spans_, kDepth);
        for (uint32_t l = 0; l < kLanes; ++l)
            pa.add_lane(&conns_[l],
                        gen_source(&gens_[l], kCycleAckedOps, &touched[l]));
        const PhaseStats sa = pa.run(UINT64_MAX, 0, true);
        take(sa);
        if (pa.broken())
            break;
        if (scraped && scrape_node(nodes_->sup().node_admin_port(0), &b)) {
            const NodeStats d = node_delta(a, b);
            o->fences += d.fences;
            o->flushes += d.flushes;
            o->persist_reqs += sa.acked;
            o->node = d;
            o->has_node = true;
            bytes_per_item.push_back(
                b.arena_used_bytes /
                double(std::max<uint64_t>(1, model_.live_items())));
        }
        rss.push_back(peak_rss_mb(nodes_->sup().node_pid(0)));

        // Part B: the same stream, killed at a seeded ack count.
        Pipeline pb(model_, spans_, kDepth);
        for (uint32_t l = 0; l < kLanes; ++l)
            pb.add_lane(&conns_[l], gen_source(&gens_[l], 0, &touched[l]));
        const uint64_t kill_after = 256 + rng_.next_below(2048);
        take(pb.run(UINT64_MAX, kill_after, true));
        nodes_->sup().kill_node(0);
        std::map<uint32_t, std::vector<Op>> pending;
        for (const Op& op : pb.unanswered())
            pending[op.key].push_back(op);
        pb.abandon();

        const uint32_t probe =
            pending.empty() ? touched[0].front() : pending.begin()->first;
        if (!timed_restart(probe, pending[probe], o)) {
            ++o->failed;
            break;
        }
        // Audit every touched key plus a seeded sample of the rest.
        for (uint32_t l = 0; l < kLanes; ++l) {
            const Slice s = lane_slice(spec_, l);
            for (uint32_t i = 0; i < kVerifySample; ++i)
                touched[l].push_back(s.begin +
                                     static_cast<uint32_t>(rng_.next_below(s.size())));
            std::sort(touched[l].begin(), touched[l].end());
            touched[l].erase(std::unique(touched[l].begin(), touched[l].end()),
                             touched[l].end());
        }
        // The audit's reads are the only gets of this workload: they give
        // its get latency (on a just-recovered node), but neither its
        // throughput nor its set latency.
        const PhaseStats audit = verify(touched, pending, true, o);
        account(audit, o);
        cycle.get.append(audit.pooled().get);
        o->windows.push_back(std::move(cycle));
        read_recovery(o);
        if (o->lost_ack)
            break;
    }
    o->peak_rss_mb = std::max(o->peak_rss_mb, median(rss));
    o->nv_bytes_per_item = median(bytes_per_item);
    o->busy_frac = wall_ns ? 1.0 - double(idle_ns) / double(wall_ns) : 0;
}

// --- in-process workload: MemcachedMini on IdoRuntime -------------------

using KeyWords = std::vector<std::array<uint64_t, 2>>;

class FaseBench final : public Bench
{
  public:
    FaseBench(const RunConfig& cfg, const WorkloadSpec& spec, std::string dir,
              Spans& spans, const KeyWords& words)
        : cfg_(cfg), spec_(spec), dir_(std::move(dir)), spans_(spans),
          words_(words), model_(spec.keys)
    {
        for (uint32_t l = 0; l < kLanes; ++l)
            gens_.emplace_back(cfg.seed, l, lane_slice(spec, l), spec.mix);
    }

    ~FaseBench() override
    {
        close();
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    bool setup(Outcome* o) override;
    void measure(double seconds, Outcome* o) override;
    void recover(Outcome* o) override;

  private:
    /** Attach the heap (fresh when reset) and build the runtime. */
    void open(bool reset)
    {
        heap_ = std::make_unique<ido::nvm::PersistentHeap>(
            ido::nvm::PersistentHeap::Options{
                .path = dir_ + "/fase.heap", .size = kHeapBytes, .reset = reset});
        dom_ = std::make_unique<ido::nvm::RealDomain>();
        rt_ = std::make_unique<ido::IdoRuntime>(*heap_, *dom_,
                                                ido::rt::RuntimeConfig{});
        ido::apps::MemcachedMini::register_programs();
    }
    /** Drop the runtime without a clean mark: the next open() recovers. */
    void close()
    {
        rt_.reset();
        dom_.reset();
        heap_.reset();
    }
    template <typename F>
    void on_lanes(F&& f)
    {
        std::thread ts[kLanes];
        for (uint32_t l = 0; l < kLanes; ++l)
            ts[l] = std::thread([&f, l] { f(l); });
        for (std::thread& t : ts)
            t.join();
    }
    KeyState call(ido::rt::RuntimeThread& th, ido::apps::MemcachedMini& cache,
                  const Op& op) const;

    static constexpr size_t kHeapBytes = size_t{384} << 20;

    const RunConfig& cfg_;
    const WorkloadSpec& spec_;
    std::string dir_;
    Spans& spans_;
    const KeyWords& words_;
    Model model_;
    std::vector<StreamGen> gens_;
    std::unique_ptr<ido::nvm::PersistentHeap> heap_;
    std::unique_ptr<ido::nvm::RealDomain> dom_;
    std::unique_ptr<ido::IdoRuntime> rt_;
    uint64_t root_ = 0;
};

KeyState
FaseBench::call(ido::rt::RuntimeThread& th, ido::apps::MemcachedMini& cache,
                const Op& op) const
{
    const auto [lo, hi] = words_[op.key];
    return memc_call(th, cache, op, lo, hi);
}

bool
FaseBench::setup(Outcome* o)
{
    std::filesystem::create_directories(dir_);
    open(/*reset=*/true);
    {
        auto th = rt_->make_thread();
        root_ = ido::apps::MemcachedMini::create(
            *th, spec_.shards, buckets_for(spec_.keys, spec_.shards));
        ido::nvm::RootRegistry::set_ref(*heap_, ido::nvm::RootSlot::kAppRoot,
                                        root_, *dom_);
    }
    heap_->mark_running(*dom_);
    uint64_t failed[kLanes] = {};
    on_lanes([&](uint32_t l) {
        auto th = rt_->make_thread();
        ido::apps::MemcachedMini cache(*heap_, root_);
        const Slice s = lane_slice(spec_, l);
        for (uint32_t k = s.begin; k < s.end; ++k) {
            const Op op{OpKind::kSet, k, prefill_value(cfg_.seed, k)};
            call(*th, cache, op);
            model_.apply(op);
        }
        for (uint64_t i = 0; i < kFaseWarmupOps; ++i) {
            const Op op = gens_[l].next();
            const KeyState got = call(*th, cache, op);
            failed[l] += !check_reply(model_, op, got);
            model_.apply(op);
        }
    });
    o->attempted += spec_.keys + kLanes * kFaseWarmupOps;
    for (uint64_t f : failed)
        o->failed += f;
    return true;
}

void
FaseBench::measure(double seconds, Outcome* o)
{
    static const char* const kNames[] = {"fase.get", "fase.set", "fase.delete"};
    const uint64_t t_start = now_ns(); // one window grid for both lanes
    const uint64_t t_end = t_start + static_cast<uint64_t>(seconds * 1e9);
    PhaseStats st[kLanes];
    ido::PersistCounters pc[kLanes];
    on_lanes([&](uint32_t l) {
        auto th = rt_->make_thread();
        ido::apps::MemcachedMini cache(*heap_, root_);
        ido::persist_counters_flush_tls(); // count only the timed window
        PhaseStats& s = st[l];
        s.start_ns = t_start;
        for (uint64_t n = 0;; ++n) {
            if ((n & 255) == 0 && now_ns() >= t_end)
                break;
            const Op op = gens_[l].next();
            const uint64_t t0 = now_ns();
            const KeyState got = call(*th, cache, op);
            const uint64_t t1 = now_ns();
            s.idle_ns += t1 - t0; // time inside the store
            Window& w = s.window(t1 - t_start);
            w.of(op.kind).add(t1 - t0);
            ++s.attempted;
            const bool ok = check_reply(model_, op, got);
            ok ? ++s.acked : ++s.failed;
            w.acked += ok;
            model_.apply(op);
            if (l == 0 && spans_.enabled()) // Spans is single-threaded
                spans_.add(spans_.open(), kNames[static_cast<int>(op.kind)], 0,
                           t0, t1, 0, n);
        }
        s.finish(now_ns() - t_start);
        pc[l] = ido::tls_persist_counters();
    });
    double busy = 0;
    for (uint32_t l = 0; l < kLanes; ++l) {
        busy += 1.0 - double(st[l].idle_ns) / double(st[l].wall_ns);
        if (l > 0)
            st[0].merge(st[l]);
        o->fences += double(pc[l].fences);
        o->flushes += double(pc[l].flushes);
        o->persist_reqs += st[l].attempted;
    }
    add_timed(st[0], o); // lanes ran side by side: wall time is shared
    add_windows(st[0], o);
    o->busy_frac = busy / kLanes;
    const auto snap = ido::MetricsRegistry::instance().snapshot();
    const auto it = snap.gauges.find("nvheap.arena_used_bytes");
    if (it != snap.gauges.end())
        o->nv_bytes_per_item =
            double(it->second) / double(std::max<uint64_t>(1, model_.live_items()));
    o->peak_rss_mb = peak_rss_mb(::getpid());
}

void
FaseBench::recover(Outcome* o)
{
    for (int cycle = 0; cycle < kFaseRestartCycles; ++cycle) {
        close(); // as if the process died: no clean mark
        const uint64_t t0 = now_ns();
        open(/*reset=*/false);
        const bool crashed = heap_->recovered_from_crash();
        if (crashed)
            rt_->recover();
        heap_->mark_running(*dom_);
        const uint64_t t_ready = now_ns();
        root_ = ido::nvm::RootRegistry::get_ref(*heap_,
                                                ido::nvm::RootSlot::kAppRoot);
        auto th = rt_->make_thread();
        ido::apps::MemcachedMini cache(*heap_, root_);
        const uint32_t probe = lane_slice(spec_, 0).begin + cycle;
        const KeyState got = call(*th, cache, {OpKind::kGet, probe, 0});
        const uint64_t t1 = now_ns();
        ++o->attempted;
        if (!crashed || !(got == model_.at(probe))) {
            ++o->failed;
            o->lost_ack = true;
        }
        o->recovery_s.push_back({(t1 - t0) / 1e9, t0, t1});
        parse_recovery(ido::RecoveryTimeline::instance().to_json(), &o->rec);
        o->rec.spawn_to_listen_ns = double(t_ready - t0);
    }
    // Every key must read back exactly as last acknowledged.
    uint64_t lost[kLanes] = {};
    on_lanes([&](uint32_t l) {
        auto th = rt_->make_thread();
        ido::apps::MemcachedMini cache(*heap_, root_);
        const Slice s = lane_slice(spec_, l);
        for (uint32_t k = s.begin; k < s.end; ++k)
            lost[l] += !(call(*th, cache, {OpKind::kGet, k, 0}) == model_.at(k));
    });
    o->attempted += spec_.keys;
    for (uint64_t n : lost) {
        o->failed += n;
        o->lost_ack |= n != 0;
    }
}

const KeyWords&
key_words(uint32_t nkeys)
{
    static KeyWords words;
    if (words.size() != nkeys) {
        words.resize(nkeys);
        for (uint32_t k = 0; k < nkeys; ++k) {
            const auto [lo, hi] = ido::net::memc_key_words(key_text(k));
            words[k] = {lo, hi};
        }
    }
    return words;
}

} // namespace

NodeSet::NodeSet(const RunConfig& cfg, std::string dir, const Options& opt)
    : routed_(opt.routed)
{
    std::filesystem::create_directories(dir);
    ido::cluster::SupervisorConfig sc;
    sc.serve_bin = cfg.serve_bin;
    sc.dir = std::move(dir);
    sc.nodes = 1;
    sc.replicate = opt.replicate;
    sc.shards = opt.shards;
    sc.batch = kDepth;
    sc.heap_bytes = opt.heap_bytes;
    sc.spawn_timeout_ms = 20000;
    sc.extra_args = {"--buckets=" + std::to_string(buckets_for(opt.keys, opt.shards))};
    sup_ = std::make_unique<ido::cluster::NodeSupervisor>(sc);
}

NodeSet::~NodeSet()
{
    if (router_) {
        router_->stop();
        router_thread_.join();
    }
    sup_.reset(); // SIGKILLs and reaps every child
}

bool
NodeSet::start()
{
    if (!sup_->start_all())
        return false;
    if (routed_) {
        ido::cluster::RouterConfig rc;
        rc.nodes = sup_->node_addrs();
        rc.ring_seed = 1;
        router_ = std::make_unique<ido::cluster::Router>(rc);
        router_thread_ = std::thread([this] { router_->run(); });
    }
    return true;
}

uint16_t
NodeSet::client_port() const
{
    return router_ ? router_->port() : sup_->node_port(0);
}

KeyState
memc_call(ido::rt::RuntimeThread& th, ido::apps::MemcachedMini& cache,
          const Op& op, uint64_t lo, uint64_t hi)
{
    KeyState got;
    switch (op.kind) {
    case OpKind::kSet:
        cache.set(th, lo, hi, op.value);
        got.present = true;
        break;
    case OpKind::kGet:
        got.present = cache.get(th, lo, hi, &got.value);
        break;
    case OpKind::kDel:
        got.present = cache.del(th, lo, hi);
        break;
    }
    return got;
}

const WorkloadSpec*
find_workload(const std::string& name)
{
    for (const WorkloadSpec& w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

uint64_t
buckets_for(uint64_t keys, uint32_t shards)
{
    uint64_t b = 1;
    while (b * shards < keys)
        b <<= 1;
    return b;
}

Slice
lane_slice(const WorkloadSpec& spec, uint32_t lane)
{
    const uint32_t per = spec.keys / kLanes;
    return {lane * per, (lane + 1) * per};
}

bool
scrape_node(uint16_t admin_port, NodeStats* out)
{
    std::string body;
    if (!ido::net::admin_http_get(admin_port, "/stats.json", &body) ||
        body.find("\"counters\"") == std::string::npos)
        return false;
    const auto num = [&](std::vector<std::string> path, double* v) {
        *v = 0;
        json_number(body, path, v);
    };
    num({"counters", "persist.fences"}, &out->fences);
    num({"counters", "persist.flushes"}, &out->flushes);
    num({"counters", "net.group.batches"}, &out->group_batches);
    num({"counters", "net.group.requests"}, &out->group_requests);
    num({"counters", "cluster.replica.batches"}, &out->replica_batches);
    num({"gauges", "nvheap.arena_used_bytes"}, &out->arena_used_bytes);
    num({"latencies", "net.lat.queue", "p50_ns"}, &out->queue_p50_ns);
    num({"latencies", "net.lat.exec", "p50_ns"}, &out->exec_p50_ns);
    num({"latencies", "net.lat.publish", "p50_ns"}, &out->publish_p50_ns);
    num({"latencies", "net.lat.replica_ack", "p50_ns"},
        &out->replica_ack_p50_ns);
    return true;
}

NodeStats
node_delta(const NodeStats& a, const NodeStats& b)
{
    NodeStats d = b;
    d.fences = b.fences - a.fences;
    d.flushes = b.flushes - a.flushes;
    d.group_batches = b.group_batches - a.group_batches;
    d.group_requests = b.group_requests - a.group_requests;
    d.replica_batches = b.replica_batches - a.replica_batches;
    return d;
}

bool
parse_recovery(const std::string& body, RecoveryInfo* out)
{
    if (body.find("\"phases\"") == std::string::npos)
        return false;
    const auto phase = [&](const char* name, const char* field, double* v) {
        *v = 0;
        json_number(body, {name, field}, v);
    };
    phase("leak-reclaim", "dur_ns", &out->leak_reclaim_ns);
    phase("heap-gc", "dur_ns", &out->heap_gc_ns);
    phase("scan-log-records", "dur_ns", &out->scan_log_ns);
    double resumed = 0;
    phase("resume-fases", "detail", &resumed);
    out->fases_resumed += resumed;
    return true;
}

Outcome
run_workload(const RunConfig& cfg, const WorkloadSpec& spec, double seconds,
             int setups, Spans& spans)
{
    Outcome o;
    const KeyWords* words = spec.in_process ? &key_words(spec.keys) : nullptr;
    // Every set-up runs its share of the measurement and of the restarts,
    // so the figures sample the whole run and every set-up (each one
    // places the store's threads afresh), not one stretch of the host's
    // load or one placement.
    for (int i = 0; i < setups; ++i) {
        const std::string dir =
            cfg.work_dir + "/" + spec.name + "-" + std::to_string(i);
        const uint64_t t0 = now_ns();
        std::unique_ptr<Bench> bench;
        if (spec.in_process)
            bench = std::make_unique<FaseBench>(cfg, spec, dir, spans, *words);
        else
            bench = std::make_unique<NodeBench>(cfg, spec, dir, spans);
        if (!bench->setup(&o)) {
            ++o.failed;
            return o;
        }
        const uint64_t t1 = now_ns();
        o.setup_s.push_back({(t1 - t0) / 1e9, t0, t1});
        bench->measure(seconds / setups, &o);
        bench->recover(&o);
    }
    return o;
}

} // namespace kvbench
