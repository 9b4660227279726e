/**
 * @file
 * The four kvbench workloads and the layer ladder.  Every workload
 * draws its requests from the run seed, checks every reply against its
 * model, and ends with a kill-and-restart of the store it loaded, so
 * each one reports recovery time and proves that acked writes survive.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/memcached_mini.h"
#include "cluster/router.h"
#include "cluster/supervisor.h"

#include "client.h"
#include "support.h"

namespace kvbench {

struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string serve_bin; ///< ido_serve built next to kvbench
    std::string work_dir;  ///< heaps, port files and traces go here
    std::string commit = "unknown";
};

struct WorkloadSpec
{
    const char* name;
    uint32_t keys;     ///< prefilled key space, split evenly over lanes
    Mix mix;
    uint32_t shards;   ///< McShards of the store
    bool in_process;   ///< MemcachedMini on IdoRuntime, no sockets
    bool routed;       ///< client -> cluster::Router -> node
    bool replicate;    ///< node acks only after its replica acked
    bool crash_cycles; ///< measure = set/delete stream + SIGKILL cycles
    uint32_t top_rung; ///< ladder rung matching the workload's path
    int setups;        ///< set-ups per untraced run, each measured in turn
};

/** Load lanes: connections, or threads for the in-process workload. */
constexpr uint32_t kLanes = 2;
/** Pipelined burst depth, and the server's group-commit limit K. */
constexpr uint32_t kDepth = 16;

const WorkloadSpec* find_workload(const std::string& name);
Slice lane_slice(const WorkloadSpec& spec, uint32_t lane);
/** Hash buckets per shard for `keys` keys: a load factor of at most 1. */
uint64_t buckets_for(uint64_t keys, uint32_t shards);

/**
 * One forked ido_serve node, optionally with its replica and an
 * in-process cluster::Router in front.  The destructor stops the router
 * and SIGKILLs and reaps every node process.
 */
class NodeSet
{
  public:
    struct Options
    {
        uint32_t shards = 1;
        bool replicate = false;
        bool routed = false;
        size_t heap_bytes = size_t{64} << 20;
        uint64_t keys = 0; ///< sizes the hash buckets
    };

    NodeSet(const RunConfig& cfg, std::string dir, const Options& opt);
    ~NodeSet();
    NodeSet(const NodeSet&) = delete;
    NodeSet& operator=(const NodeSet&) = delete;

    /** Spawn the node (and replica, and router); false on failure. */
    bool start();
    /** Where clients connect: the router when routed, else the node. */
    uint16_t client_port() const;
    ido::cluster::NodeSupervisor& sup() { return *sup_; }

  private:
    std::unique_ptr<ido::cluster::NodeSupervisor> sup_;
    std::unique_ptr<ido::cluster::Router> router_;
    std::thread router_thread_;
    bool routed_;
};

/** One request into an in-process MemcachedMini; the reply as a KeyState. */
KeyState memc_call(ido::rt::RuntimeThread& th, ido::apps::MemcachedMini& cache,
                   const Op& op, uint64_t lo, uint64_t hi);

/** Counters a node exports on /stats.json. */
struct NodeStats
{
    double fences = 0, flushes = 0;
    double group_batches = 0, group_requests = 0, replica_batches = 0;
    double queue_p50_ns = 0, exec_p50_ns = 0, publish_p50_ns = 0;
    double replica_ack_p50_ns = 0;
    double arena_used_bytes = 0;
};

bool scrape_node(uint16_t admin_port, NodeStats* out);
/** Counter deltas b - a; latencies and gauges as of b. */
NodeStats node_delta(const NodeStats& a, const NodeStats& b);

/** Phases of the last recovery, from the /recovery timeline. */
struct RecoveryInfo
{
    double leak_reclaim_ns = 0, heap_gc_ns = 0, scan_log_ns = 0;
    double spawn_to_listen_ns = 0;
    double fases_resumed = 0; ///< summed over every recovery of the run
};

/** Fold one /recovery timeline into *out. */
bool parse_recovery(const std::string& body, RecoveryInfo* out);

/** Everything one workload run measured. */
struct Outcome
{
    /// Measurement windows: time slices of a continuous run, or one per
    /// kill/restart cycle.  End-to-end figures are medians over them.
    std::vector<Window> windows;
    uint64_t timed_acks = 0; ///< durably acked requests, timed phases
    double timed_s = 0;
    double fences = 0, flushes = 0; ///< persist events of persist_reqs
    uint64_t persist_reqs = 0;
    double nv_bytes_per_item = 0; ///< of the last set-up
    double peak_rss_mb = 0;       ///< the highest of the set-ups
    std::vector<Timed> setup_s, recovery_s;
    RecoveryInfo rec;
    NodeStats node; ///< node counters over the timed window
    bool has_node = false;
    uint64_t attempted = 0, failed = 0;
    bool lost_ack = false;
    double busy_frac = 0;
};

/**
 * Run one workload: `setups` set-ups, each measured for seconds / setups,
 * then killed and restarted, and read back.
 */
Outcome run_workload(const RunConfig& cfg, const WorkloadSpec& spec,
                     double seconds, int setups, Spans& spans);

/** Per-layer figures of the layer ladder (name -> value, unit). */
struct LayerMetric
{
    double value;
    const char* unit;
};
using LayerMetrics = std::map<std::string, LayerMetric>;

/**
 * Replay the workload's lane-0 stream into each layer's entry point on
 * its own (L0 flush+fence .. L6 +replica) and derive the per-layer
 * metrics.  Wrong replies are added to *failed.
 */
LayerMetrics run_ladder(const RunConfig& cfg, const WorkloadSpec& spec,
                        Spans& spans, uint64_t* attempted,
                        uint64_t* failed);

} // namespace kvbench
