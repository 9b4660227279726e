/**
 * @file
 * ido-serve end-to-end tests.
 *
 * - InProcess*: a Server on an anonymous heap in this process, driven
 *   over real loopback sockets: protocol conformance, pipelining with
 *   cross-shard reply reordering, one reply write per batch, connection
 *   lifecycle under deferred writes, dead-work skipping.
 *
 * - KillNineUnderLoad: the headline crash test.  Forks the real
 *   ido_serve binary (found via $IDO_SERVE_BIN, set by CMake) on a
 *   file-backed heap, pumps pipelined sets, SIGKILLs the server at a
 *   deterministic acknowledgement count mid-pipeline, restarts it
 *   (which runs iDO recovery), reconnects with bounded retry/backoff,
 *   and verifies: every acknowledged write survived, every observed
 *   value is one the client actually sent and no older than the last
 *   acknowledged one (per-key order holds), and the cache answers
 *   fresh traffic.
 *
 * - Soak: repeats that crash cycle for $IDO_SOAK_SECONDS (default 2;
 *   CI runs 30) with a seeded random kill point per round.
 */
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "apps/memcached_mini.h"
#include "common/rng.h"
#include "ido/ido_runtime.h"
#include "net/admin.h"
#include "net/memc_client.h"
#include "net/memc_protocol.h"
#include "net/server.h"
#include "nvm/persist_domain.h"
#include "nvm/persistent_heap.h"
#include "stats/metrics.h"

namespace ido {
namespace {

using net::MemcClient;

// --------------------------------------------------------------------------
// In-process smoke tests
// --------------------------------------------------------------------------

struct InProcessServer
{
    InProcessServer(uint32_t shards, uint32_t batch_limit,
                    bool admin = false, uint32_t publish_delay_ms = 0)
        : heap({.size = 64u << 20}), dom(),
          runtime(heap, dom, rt::RuntimeConfig{})
    {
        apps::MemcachedMini::register_programs();
        net::ServerConfig cfg;
        cfg.port = 0;
        cfg.shards = shards;
        cfg.batch_limit = batch_limit;
        cfg.nbuckets = 64;
        cfg.admin = admin;
        cfg.publish_delay_ms = publish_delay_ms;
        server = std::make_unique<net::Server>(runtime, cfg);
        thread = std::thread([this] { server->run(); });
    }

    ~InProcessServer() { stop(); }

    /** Stop the loop and join; run() returns once every worker stopped. */
    void stop()
    {
        if (!thread.joinable())
            return;
        server->stop();
        thread.join();
    }

    nvm::PersistentHeap heap;
    nvm::RealDomain dom;
    IdoRuntime runtime;
    std::unique_ptr<net::Server> server;
    std::thread thread;
};

TEST(InProcessServer_, ProtocolBasics)
{
    InProcessServer s(/*shards=*/2, /*batch_limit=*/4);
    MemcClient c;
    ASSERT_TRUE(c.connect_retry("127.0.0.1", s.server->port(), 50, 10));

    EXPECT_NE(c.version().find("VERSION"), std::string::npos);

    uint64_t v = 0;
    EXPECT_FALSE(c.get("absent", &v));
    EXPECT_TRUE(c.set("alpha", 11));
    EXPECT_TRUE(c.get("alpha", &v));
    EXPECT_EQ(v, 11u);
    EXPECT_TRUE(c.set("alpha", 12)); // update in place
    EXPECT_TRUE(c.get("alpha", &v));
    EXPECT_EQ(v, 12u);
    EXPECT_TRUE(c.del("alpha"));
    EXPECT_FALSE(c.del("alpha"));
    EXPECT_FALSE(c.get("alpha", &v));
}

TEST(InProcessServer_, PipelinedAcrossShardsStaysOrdered)
{
    InProcessServer s(/*shards=*/4, /*batch_limit=*/8);
    MemcClient c;
    ASSERT_TRUE(c.connect_retry("127.0.0.1", s.server->port(), 50, 10));

    // Keys hash across all 4 shard workers; replies must still come
    // back in request order, which pipeline_flush depends on.
    const int kOps = 200;
    for (int i = 0; i < kOps; ++i)
        c.pipeline_set("pk" + std::to_string(i), 1000 + i);
    EXPECT_EQ(c.pipeline_flush(), static_cast<size_t>(kOps));
    for (int i = 0; i < kOps; ++i) {
        uint64_t v = 0;
        ASSERT_TRUE(c.get("pk" + std::to_string(i), &v)) << i;
        EXPECT_EQ(v, 1000u + i);
    }
}

TEST(InProcessServer_, MalformedInputAnsweredInOrder)
{
    InProcessServer s(/*shards=*/1, /*batch_limit=*/4);
    MemcClient c;
    ASSERT_TRUE(c.connect_retry("127.0.0.1", s.server->port(), 50, 10));
    // A bogus command between two valid ones: ERROR must arrive
    // between the two STOREDs, not reordered around them.
    EXPECT_TRUE(c.set("m1", 1));
    uint64_t v = 0;
    EXPECT_FALSE(c.get("nosuchcommandkey", &v));
    EXPECT_TRUE(c.set("m2", 2));
}

TEST(InProcessServer_, ServerSurvivesQuitMidPipeline)
{
    // Regression: close_conn used to erase the Conn while read_conn's
    // parse loop still held a reference to it, so a quit inside a
    // pipelined burst was a use-after-free -- the ASAN build catches a
    // reintroduction.  Mirrors Cluster.RouterSurvivesQuitMidPipeline.
    InProcessServer s(/*shards=*/1, /*batch_limit=*/4);
    const auto dial = [&s]() -> int {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd, 0);
        sockaddr_in a = {};
        a.sin_family = AF_INET;
        a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        a.sin_port = htons(s.server->port());
        EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&a), sizeof a),
                  0);
        return fd;
    };
    const auto read_until_eof = [](int fd) -> std::string {
        std::string got;
        char buf[512];
        for (;;) {
            const ssize_t n = ::read(fd, buf, sizeof buf);
            if (n <= 0)
                break;
            got.append(buf, static_cast<size_t>(n));
        }
        return got;
    };

    // One burst: a loop-answered request, quit, then trailing requests
    // the server must drop instead of serving a closed client.
    const int fd = dial();
    const char burst[] = "version\r\nquit\r\nversion\r\nget k\r\n";
    ASSERT_EQ(::write(fd, burst, sizeof burst - 1),
              static_cast<ssize_t>(sizeof burst - 1));
    const std::string got = read_until_eof(fd); // EOF = conn closed
    EXPECT_EQ(got.rfind("VERSION", 0), 0u) << got;
    EXPECT_EQ(got.find("VERSION", 1), std::string::npos)
        << "request after quit was served: " << got;
    ::close(fd);

    // The server must still be healthy after the mid-burst close.
    MemcClient c;
    ASSERT_TRUE(c.connect_retry("127.0.0.1", s.server->port(), 50, 10));
    EXPECT_TRUE(c.set("after-quit", 3));
    uint64_t v = 0;
    ASSERT_TRUE(c.get("after-quit", &v));
    EXPECT_EQ(v, 3u);
    const int fd2 = dial();
    ASSERT_EQ(::write(fd2, "quit\r\n", 6), 6);
    EXPECT_EQ(read_until_eof(fd2), "");
    ::close(fd2);
}

// `stats` round-trip: after acked traffic the reply must carry the
// request counter, the connection gauge, and -- because reply release
// happens after latency recording -- a nonzero per-op sample count.
TEST(InProcessServer_, StatsCommandReportsTrafficAndLatency)
{
    InProcessServer s(/*shards=*/2, /*batch_limit=*/4);
    MemcClient c;
    ASSERT_TRUE(c.connect_retry("127.0.0.1", s.server->port(), 50, 10));
    for (int i = 0; i < 20; ++i)
        ASSERT_TRUE(c.set("sk" + std::to_string(i), 100 + i));
    uint64_t v = 0;
    ASSERT_TRUE(c.get("sk3", &v));

    std::map<std::string, std::string> st;
    ASSERT_TRUE(c.stats(&st));
    ASSERT_TRUE(st.count("net.requests"));
    EXPECT_GE(std::stoull(st["net.requests"]), 21u);
    ASSERT_TRUE(st.count("net.conns"));
    EXPECT_GE(std::stoull(st["net.conns"]), 1u);
    // Every reply so far left in some write.
    ASSERT_TRUE(st.count("net.reply_writes"));
    EXPECT_GE(std::stoull(st["net.reply_writes"]), 1u);
    // Default build runs with IDO_STAT on; each acked set was recorded
    // before its reply was released.
    ASSERT_TRUE(st.count("net.lat.req.set.count"));
    EXPECT_GE(std::stoull(st["net.lat.req.set.count"]), 20u);
    ASSERT_TRUE(st.count("net.lat.req.set.p99_ns"));
    EXPECT_GT(std::stoull(st["net.lat.req.set.p99_ns"]), 0u);
    // Phase decomposition recorders ride along.
    EXPECT_TRUE(st.count("net.lat.queue.count"));
    EXPECT_TRUE(st.count("net.lat.exec.count"));
    EXPECT_TRUE(st.count("net.lat.publish.count"));
    // Interleaves with normal traffic on the same connection.
    EXPECT_TRUE(c.set("after-stats", 7));
    ASSERT_TRUE(c.get("after-stats", &v));
    EXPECT_EQ(v, 7u);
}

// The admin endpoint serves Prometheus text, the JSON snapshot, and
// health without blocking shard workers.
TEST(InProcessServer_, AdminEndpointServesMetrics)
{
    InProcessServer s(/*shards=*/2, /*batch_limit=*/4, /*admin=*/true);
    ASSERT_NE(s.server->admin_port(), 0);
    MemcClient c;
    ASSERT_TRUE(c.connect_retry("127.0.0.1", s.server->port(), 50, 10));
    ASSERT_TRUE(c.set("adm", 1));

    std::string body;
    ASSERT_TRUE(
        net::admin_http_get(s.server->admin_port(), "/metrics", &body));
    EXPECT_NE(body.find("ido_net_requests_total"), std::string::npos);
    EXPECT_NE(body.find("# TYPE"), std::string::npos);

    ASSERT_TRUE(net::admin_http_get(s.server->admin_port(),
                                    "/stats.json", &body));
    EXPECT_NE(body.find("\"counters\""), std::string::npos);
    EXPECT_NE(body.find("\"latencies\""), std::string::npos);
    EXPECT_NE(body.find("\"net.reply_writes\""), std::string::npos);

    ASSERT_TRUE(
        net::admin_http_get(s.server->admin_port(), "/healthz", &body));
    EXPECT_EQ(body, "ok\n");

    ASSERT_TRUE(
        net::admin_http_get(s.server->admin_port(), "/recovery", &body));
    EXPECT_NE(body.find("\"recorded\""), std::string::npos);

    EXPECT_FALSE(net::admin_http_get(s.server->admin_port(),
                                     "/no-such-route", &body));

    // Scraping must not have disturbed the data path.
    uint64_t v = 0;
    ASSERT_TRUE(c.get("adm", &v));
    EXPECT_EQ(v, 1u);
}

// Typed client errors (ido-cluster satellite): failover logic needs to
// tell "the node died" from "the node answered no"; a benign miss or
// NOT_FOUND must not look like either.
TEST(InProcessServer_, TypedClientErrors)
{
    using net::ClientError;
    auto s = std::make_unique<InProcessServer>(/*shards=*/2,
                                               /*batch_limit=*/4);
    MemcClient c;
    // Calls before any connect: kNotConnected.
    EXPECT_FALSE(c.set("x", 1));
    EXPECT_EQ(c.last_error(), ClientError::kNotConnected);

    ASSERT_TRUE(c.connect_retry("127.0.0.1", s->server->port(), 50, 10));
    ASSERT_TRUE(c.set("te", 5));
    EXPECT_EQ(c.last_error(), ClientError::kNone);

    // Answers, not failures: miss and absent-delete stay kNone.
    uint64_t v = 0;
    EXPECT_FALSE(c.get("te-absent", &v));
    EXPECT_EQ(c.last_error(), ClientError::kNone);
    EXPECT_FALSE(c.del("te-absent"));
    EXPECT_EQ(c.last_error(), ClientError::kNone);

    // Tear the server down mid-connection: the next RPC must surface
    // a disconnect-class error, not a generic false.
    s.reset();
    EXPECT_FALSE(c.get("te", &v));
    EXPECT_TRUE(c.last_error() == ClientError::kDisconnected ||
                c.last_error() == ClientError::kSendFailed ||
                c.last_error() == ClientError::kTimeout)
        << net::client_error_name(c.last_error());

    // A refused connect reports kConnectFailed (one attempt, no retry:
    // nothing listens on the dead server's port any more).
    MemcClient c2;
    EXPECT_FALSE(c2.connect("127.0.0.1", 1));
    EXPECT_EQ(c2.last_error(), ClientError::kConnectFailed);
}

/** CPU time used so far by every thread of this process. */
uint64_t
process_cpu_ns()
{
    rusage ru = {};
    ::getrusage(RUSAGE_SELF, &ru);
    const auto ns = [](const timeval& tv) {
        return static_cast<uint64_t>(tv.tv_sec) * 1000000000ull +
               static_cast<uint64_t>(tv.tv_usec) * 1000ull;
    };
    return ns(ru.ru_utime) + ns(ru.ru_stime);
}

/** Blocking loopback connection with a 5 s receive timeout. */
int
dial_loopback(uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    timeval tv = {5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in a = {};
    a.sin_family = AF_INET;
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    a.sin_port = htons(port);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&a), sizeof a), 0);
    return fd;
}

/** Read until the peer closes; false if a read failed or timed out. */
bool
read_to_eof(int fd, std::string* got)
{
    char buf[512];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n == 0)
            return true;
        if (n < 0)
            return false;
        got->append(buf, static_cast<size_t>(n));
    }
}

// Regression: a client that sends a request and half-closes
// (shutdown(SHUT_WR)) while the reply is pending used to make the loop
// thread spin on the level-triggered EPOLLIN that EOF keeps raising,
// burning a core until the reply went out.
TEST(InProcessServer_, HalfCloseWaitsWithoutSpinning)
{
    InProcessServer s(/*shards=*/1, /*batch_limit=*/4, /*admin=*/false,
                      /*publish_delay_ms=*/300);
    const int fd = dial_loopback(s.server->port());
    const char rq[] = "set hc 0 0 1\r\n7\r\n";
    ASSERT_EQ(::write(fd, rq, sizeof rq - 1),
              static_cast<ssize_t>(sizeof rq - 1));
    ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
    const uint64_t cpu0 = process_cpu_ns();
    const auto t0 = std::chrono::steady_clock::now();
    std::string got;
    const bool eof = read_to_eof(fd, &got);
    const uint64_t wall_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    const uint64_t cpu_ns = process_cpu_ns() - cpu0;
    ::close(fd);
    EXPECT_EQ(got, "STORED\r\n");
    EXPECT_TRUE(eof) << "no EOF after the reply";
    EXPECT_GE(wall_ns, 250000000u) << "the wait did not cover the delay";
    EXPECT_LT(cpu_ns, wall_ns / 4)
        << "cpu " << cpu_ns << " ns over a " << wall_ns << " ns wait";
}

// Regression: replies written to a client that already closed used
// write(2), so the second one raised SIGPIPE and killed the process.
TEST(InProcessServer_, ClientGoneMidRepliesLeavesServerUp)
{
    InProcessServer s(/*shards=*/1, /*batch_limit=*/4, /*admin=*/false,
                      /*publish_delay_ms=*/5);
    const int fd = dial_loopback(s.server->port());
    std::string burst;
    for (int i = 0; i < 200; ++i)
        burst += "get gone\r\n";
    ASSERT_EQ(::write(fd, burst.data(), burst.size()),
              static_cast<ssize_t>(burst.size()));
    ::close(fd); // leave before the delayed replies come back
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    MemcClient c;
    ASSERT_TRUE(c.connect_retry("127.0.0.1", s.server->port(), 50, 10));
    EXPECT_TRUE(c.set("after-gone", 9));
}

/** Send all of `wire` with one write; false if it was cut short. */
bool
write_all_once(int fd, const std::string& wire)
{
    return ::write(fd, wire.data(), wire.size()) ==
           static_cast<ssize_t>(wire.size());
}

/** Read and decode one reply per op of `ops`, in order; false if the
 *  connection failed, timed out or broke the grammar first. */
bool
read_replies(int fd, const std::vector<net::MemcOp>& ops,
             std::vector<net::MemcReply>* out)
{
    net::MemcReplyParser parser;
    char buf[4096];
    net::MemcReply r;
    while (out->size() < ops.size()) {
        if (parser.next(ops[out->size()], &r)) {
            out->push_back(std::move(r));
            continue;
        }
        if (parser.bad())
            return false;
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n <= 0)
            return false;
        parser.feed(buf, static_cast<size_t>(n));
    }
    return true;
}

uint64_t
reply_writes()
{
    return MetricsRegistry::instance().counter("net.reply_writes")->load();
}

// A pipelined burst that one K-deep batch answers leaves the server as
// one send(), not one per reply: completions only mark the connection
// dirty and the loop's end-of-turn pass writes it once.
TEST(InProcessServer_, PipelinedBurstIsOneReplyWrite)
{
    InProcessServer s(/*shards=*/1, /*batch_limit=*/16);
    const int fd = dial_loopback(s.server->port());
    std::string burst;
    for (int i = 0; i < 16; ++i)
        burst += "get rw" + std::to_string(i) + "\r\n";
    const uint64_t before = reply_writes();
    ASSERT_TRUE(write_all_once(fd, burst));
    std::vector<net::MemcReply> got;
    ASSERT_TRUE(read_replies(
        fd, std::vector<net::MemcOp>(16, net::MemcOp::kGet), &got));
    // The version round trip orders the burst's counter bump (made
    // after its send returned) before our read of the counter.
    ASSERT_TRUE(write_all_once(fd, "version\r\n"));
    got.clear();
    ASSERT_TRUE(read_replies(fd, {net::MemcOp::kVersion}, &got));
    const uint64_t burst_writes = reply_writes() - before - 1;
    ::close(fd);
    EXPECT_LE(burst_writes, 2u) << "16 replies took " << burst_writes
                                << " writes";
}

// One connection's pipeline spans both shards, three quarters of it on
// shard 0.  With a publish delay per batch shard 0 runs three delayed
// batches to shard 1's one, so shard 1's replies complete early and
// must wait in the reorder buffer across several write passes.
TEST(InProcessServer_, SlowShardKeepsPipelineOrder)
{
    InProcessServer s(/*shards=*/2, /*batch_limit=*/16, /*admin=*/false,
                      /*publish_delay_ms=*/20);
    apps::MemcachedMini cache(s.heap, s.server->root_off());
    std::vector<std::string> keys[2];
    const size_t want[2] = {48, 16};
    for (int i = 0; keys[0].size() < want[0] || keys[1].size() < want[1];
         ++i) {
        const std::string k = "ord" + std::to_string(i);
        const auto [lo, hi] = net::memc_key_words(k);
        const uint64_t shard = cache.shard_index(lo, hi);
        if (keys[shard].size() < want[shard])
            keys[shard].push_back(k);
    }
    std::vector<std::string> order;
    for (int i = 0; i < 16; ++i) {
        for (int j = 0; j < 3; ++j)
            order.push_back(keys[0][3 * i + j]);
        order.push_back(keys[1][i]);
    }
    MemcClient c;
    ASSERT_TRUE(c.connect_retry("127.0.0.1", s.server->port(), 50, 10));
    for (size_t i = 0; i < order.size(); ++i)
        c.pipeline_set(order[i], 7000 + i);
    ASSERT_EQ(c.pipeline_flush(), order.size());

    const int fd = dial_loopback(s.server->port());
    std::string burst;
    for (const std::string& k : order)
        burst += "get " + k + "\r\n";
    ASSERT_TRUE(write_all_once(fd, burst));
    std::vector<net::MemcReply> got;
    ASSERT_TRUE(read_replies(
        fd, std::vector<net::MemcOp>(order.size(), net::MemcOp::kGet),
        &got));
    ::close(fd);
    for (size_t i = 0; i < order.size(); ++i) {
        ASSERT_EQ(got[i].kind, net::MemcReplyKind::kValue) << i;
        EXPECT_EQ(got[i].value, 7000 + i) << "reply " << i << " out of order";
    }
}

// A connection can close between being marked dirty and the end-of-turn
// write pass: a reset raises EPOLLERR/EPOLLHUP in the same epoll round
// as a completion wake-up.  The pass must look the connection up by id
// and skip it.  The ASAN build catches a dangling Conn&.  A half-close
// in the same state must still get every reply, then EOF.
TEST(InProcessServer_, ResetOrHalfCloseWhileDirtyLeavesServerUp)
{
    InProcessServer s(/*shards=*/2, /*batch_limit=*/4, /*admin=*/false,
                      /*publish_delay_ms=*/1);
    std::string burst;
    for (int i = 0; i < 400; ++i)
        burst += "get dirty" + std::to_string(i % 37) + "\r\n";
    for (int round = 0; round < 20; ++round) {
        const int fd = dial_loopback(s.server->port());
        ASSERT_TRUE(write_all_once(fd, burst));
        std::this_thread::sleep_for(std::chrono::milliseconds(round % 4));
        const linger reset = {1, 0}; // close() sends RST
        ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof reset);
        ::close(fd);
    }
    const int fd = dial_loopback(s.server->port());
    ASSERT_TRUE(write_all_once(fd, burst));
    ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
    std::vector<net::MemcReply> got;
    ASSERT_TRUE(read_replies(
        fd, std::vector<net::MemcOp>(400, net::MemcOp::kGet), &got));
    std::string tail;
    EXPECT_TRUE(read_to_eof(fd, &tail)) << "no EOF after the replies";
    EXPECT_EQ(tail, "");
    ::close(fd);
    MemcClient c;
    ASSERT_TRUE(c.connect_retry("127.0.0.1", s.server->port(), 50, 10));
    EXPECT_TRUE(c.set("after-resets", 4));
}

// Requests queued by a client that has gone are never executed: batch
// pickup and stop() drop them.  With a 50 ms publish delay the 20 K
// gets below would keep a draining stop() busy for about a minute.
TEST(InProcessServer_, DeadConnectionWorkIsSkipped)
{
    auto s = std::make_unique<InProcessServer>(
        /*shards=*/1, /*batch_limit=*/16, /*admin=*/false,
        /*publish_delay_ms=*/50);
    MemcClient live;
    ASSERT_TRUE(
        live.connect_retry("127.0.0.1", s->server->port(), 50, 10));
    ASSERT_TRUE(live.set("live", 1));

    const int fd = dial_loopback(s->server->port());
    std::string burst;
    for (int i = 0; i < 20000; ++i)
        burst += "get gone\r\n";
    size_t off = 0;
    while (off < burst.size()) {
        const ssize_t n =
            ::write(fd, burst.data() + off, burst.size() - off);
        ASSERT_GT(n, 0);
        off += static_cast<size_t>(n);
    }
    // A plain close: the server reads all 20 K gets up to the EOF and
    // queues them; the connection closes when a reply write fails.
    ::close(fd);

    // The live connection's requests sit behind the dead ones in the
    // shard queue and are answered as before.
    uint64_t v = 0;
    ASSERT_TRUE(live.get("live", &v));
    EXPECT_EQ(v, 1u);
    EXPECT_TRUE(live.set("live", 2));
    ASSERT_TRUE(live.get("live", &v));
    EXPECT_EQ(v, 2u);

    const auto t0 = std::chrono::steady_clock::now();
    s->stop();
    const double stop_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_LT(stop_s, 3.0) << "stop drained dead work";
    EXPECT_LT(s->server->requests_served(), 1000u)
        << "the gone client's gets were executed";
}

// --------------------------------------------------------------------------
// MemcReplyParser + MemcClient reply decoding
// --------------------------------------------------------------------------

using net::MemcOp;
using net::MemcReply;
using net::MemcReplyKind;
using net::MemcReplyParser;

struct ReplyCase
{
    MemcOp op;
    std::string wire;
    MemcReplyKind kind;
};

const std::vector<ReplyCase>&
reply_cases()
{
    static const std::vector<ReplyCase> cases = {
        {MemcOp::kSet, "STORED\r\n", MemcReplyKind::kStored},
        {MemcOp::kGet, "VALUE some-key 7 5\r\n12345\r\nEND\r\n",
         MemcReplyKind::kValue},
        {MemcOp::kGet, "END\r\n", MemcReplyKind::kEnd},
        {MemcOp::kDelete, "DELETED\r\n", MemcReplyKind::kDeleted},
        {MemcOp::kDelete, "NOT_FOUND\r\n", MemcReplyKind::kNotFound},
        {MemcOp::kVersion, "VERSION ido-serve 1.0\r\n",
         MemcReplyKind::kVersion},
        {MemcOp::kStats, "STAT a 1\r\nSTAT b.c two words\r\nEND\r\n",
         MemcReplyKind::kStats},
        {MemcOp::kStats, "END\r\n", MemcReplyKind::kStats},
        {MemcOp::kGet, "SERVER_ERROR node unavailable\r\n",
         MemcReplyKind::kServerError},
        {MemcOp::kSet, "ERROR\r\n", MemcReplyKind::kError},
        {MemcOp::kSet, "CLIENT_ERROR bad data chunk\r\n",
         MemcReplyKind::kError},
    };
    return cases;
}

/** Every frame `ops` yields from `wire` fed in `chunk`-byte pieces. */
std::vector<MemcReply>
decode_chunked(const std::vector<MemcOp>& ops, const std::string& wire,
               size_t chunk)
{
    MemcReplyParser p;
    std::vector<MemcReply> out;
    MemcReply r;
    size_t fed = 0;
    for (;;) {
        while (out.size() < ops.size() && p.next(ops[out.size()], &r))
            out.push_back(r);
        if (fed == wire.size() || p.bad())
            break;
        const size_t n = std::min(chunk, wire.size() - fed);
        p.feed(wire.data() + fed, n);
        fed += n;
    }
    EXPECT_FALSE(p.bad());
    EXPECT_EQ(p.buffered_bytes(), 0u);
    return out;
}

void
expect_same(const MemcReply& a, const MemcReply& b)
{
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.wire, b.wire);
    EXPECT_EQ(a.line, b.line);
    EXPECT_EQ(a.flags, b.flags);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.stats, b.stats);
}

TEST(MemcReplyParser_, DecodesEveryKind)
{
    for (const ReplyCase& c : reply_cases()) {
        const std::vector<MemcReply> got =
            decode_chunked({c.op}, c.wire, c.wire.size());
        ASSERT_EQ(got.size(), 1u) << c.wire;
        EXPECT_EQ(got[0].kind, c.kind) << c.wire;
        EXPECT_EQ(got[0].wire, c.wire);
    }
    const ReplyCase& hit = reply_cases()[1];
    const MemcReply v = decode_chunked({hit.op}, hit.wire, 64)[0];
    EXPECT_EQ(v.flags, 7u);
    EXPECT_EQ(v.value, 12345u);
    const ReplyCase& st = reply_cases()[6];
    const MemcReply s = decode_chunked({st.op}, st.wire, 64)[0];
    const std::map<std::string, std::string> want = {{"a", "1"},
                                                     {"b.c", "two words"}};
    EXPECT_EQ(s.stats, want);
    EXPECT_EQ(decode_chunked({MemcOp::kVersion}, "VERSION x\r\n", 64)[0]
                  .line,
              "VERSION x");
}

TEST(MemcReplyParser_, AnyChunkingGivesIdenticalFrames)
{
    // Every kind back to back, fed whole, one byte at a time, and
    // split in two at every offset.
    std::vector<MemcOp> ops;
    std::string wire;
    for (const ReplyCase& c : reply_cases()) {
        ops.push_back(c.op);
        wire += c.wire;
    }
    const std::vector<MemcReply> whole = decode_chunked(ops, wire, wire.size());
    ASSERT_EQ(whole.size(), ops.size());
    for (size_t i = 0; i < ops.size(); ++i)
        EXPECT_EQ(whole[i].kind, reply_cases()[i].kind) << i;
    const auto same = [&](const std::vector<MemcReply>& got) {
        ASSERT_EQ(got.size(), whole.size());
        for (size_t i = 0; i < got.size(); ++i)
            expect_same(got[i], whole[i]);
    };
    same(decode_chunked(ops, wire, 1));
    for (size_t cut = 1; cut < wire.size(); ++cut) {
        MemcReplyParser p;
        std::vector<MemcReply> got;
        MemcReply r;
        p.feed(wire.data(), cut);
        while (got.size() < ops.size() && p.next(ops[got.size()], &r))
            got.push_back(r);
        p.feed(wire.data() + cut, wire.size() - cut);
        while (got.size() < ops.size() && p.next(ops[got.size()], &r))
            got.push_back(r);
        SCOPED_TRACE(cut);
        same(got);
    }
}

TEST(MemcReplyParser_, ProtocolErrors)
{
    const auto bad = [](MemcOp op, const std::string& wire) {
        MemcReplyParser p;
        MemcReply r;
        p.feed(wire.data(), wire.size());
        return !p.next(op, &r) && p.bad();
    };
    // The data block disagrees with the header's byte count, both ways.
    EXPECT_TRUE(bad(MemcOp::kGet, "VALUE k 0 1\r\n12\r\nEND\r\n"));
    EXPECT_TRUE(bad(MemcOp::kGet, "VALUE k 0 4\r\n12\r\nEND\r\n"));
    // Malformed header, non-decimal data, missing END.
    EXPECT_TRUE(bad(MemcOp::kGet, "VALUE k 0\r\n12\r\nEND\r\n"));
    EXPECT_TRUE(bad(MemcOp::kGet, "VALUE k 0 2\r\nab\r\nEND\r\n"));
    EXPECT_TRUE(bad(MemcOp::kGet, "VALUE k 0 2\r\n12\r\nSTORED\r\n"));
    // Lines the op does not allow.
    EXPECT_TRUE(bad(MemcOp::kSet, "DELETED\r\n"));
    EXPECT_TRUE(bad(MemcOp::kGet, "STORED\r\n"));
    EXPECT_TRUE(bad(MemcOp::kDelete, "END\r\n"));
    EXPECT_TRUE(bad(MemcOp::kVersion, "STORED\r\n"));
    EXPECT_TRUE(bad(MemcOp::kStats, "STAT a 1\r\nVALUE\r\n"));
    // A line that can never end within the limit.
    EXPECT_TRUE(bad(MemcOp::kSet, std::string(600, 'S')));
    // Incomplete is not bad.
    EXPECT_FALSE(bad(MemcOp::kGet, "VALUE k 0 5\r\n123"));
}

// A peer that answers off the grammar surfaces as kProtocol, not as a
// miss or a disconnect.
TEST(MemcReplyParser_, ClientReportsProtocolErrors)
{
    const auto answer = [](const std::string& reply, auto&& call) {
        const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in a = {};
        a.sin_family = AF_INET;
        a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        EXPECT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&a), sizeof a), 0);
        EXPECT_EQ(::listen(lfd, 1), 0);
        socklen_t alen = sizeof a;
        ::getsockname(lfd, reinterpret_cast<sockaddr*>(&a), &alen);
        const uint16_t port = ntohs(a.sin_port);
        std::thread peer([lfd, &reply] {
            const int fd = ::accept(lfd, nullptr, nullptr);
            char buf[256];
            EXPECT_GT(::read(fd, buf, sizeof buf), 0); // the request
            EXPECT_EQ(::write(fd, reply.data(), reply.size()),
                      static_cast<ssize_t>(reply.size()));
            // Hold the connection open until the client goes.
            EXPECT_GE(::read(fd, buf, sizeof buf), 0);
            ::close(fd);
        });
        MemcClient c;
        EXPECT_TRUE(c.connect("127.0.0.1", port));
        call(c);
        const net::ClientError e = c.last_error();
        c.close();
        peer.join();
        ::close(lfd);
        return e;
    };
    uint64_t v = 0;
    const auto get = [&v](MemcClient& c) { EXPECT_FALSE(c.get("k", &v)); };
    const auto set = [](MemcClient& c) { EXPECT_FALSE(c.set("k", 1)); };
    EXPECT_EQ(answer("VALUE k 0 1\r\n12\r\nEND\r\n", get),
              net::ClientError::kProtocol);
    EXPECT_EQ(answer("DELETED\r\n", set), net::ClientError::kProtocol);
    EXPECT_EQ(answer("SERVER_ERROR out of memory\r\n", set),
              net::ClientError::kServerError);
    EXPECT_EQ(answer("VALUE k 3 2\r\n42\r\nEND\r\n",
                     [&v](MemcClient& c) { EXPECT_TRUE(c.get("k", &v)); }),
              net::ClientError::kNone);
    EXPECT_EQ(v, 42u);
}

// --------------------------------------------------------------------------
// Kill -9 under load (real process, file-backed heap)
// --------------------------------------------------------------------------

struct ServerProcess
{
    pid_t pid = -1;
    uint16_t port = 0;
};

/** Launch $IDO_SERVE_BIN and wait for its port file.  pid<0 on error.
 *  A nonempty `admin_port_path` also starts the admin endpoint and
 *  writes its port there. */
ServerProcess
spawn_server(const std::string& bin, const std::string& heap_path,
             const std::string& port_path, int shards, int batch,
             bool reset, const std::string& admin_port_path = "")
{
    ServerProcess sp;
    ::unlink(port_path.c_str());
    if (!admin_port_path.empty())
        ::unlink(admin_port_path.c_str());
    const pid_t pid = ::fork();
    if (pid < 0)
        return sp;
    if (pid == 0) {
        const std::string heap_arg = "--heap=" + heap_path;
        const std::string port_arg = "--port-file=" + port_path;
        const std::string shards_arg =
            "--shards=" + std::to_string(shards);
        const std::string batch_arg = "--batch=" + std::to_string(batch);
        const std::string admin_arg =
            "--admin-port-file=" + admin_port_path;
        std::vector<const char*> args = {
            bin.c_str(),       heap_arg.c_str(),  port_arg.c_str(),
            shards_arg.c_str(), batch_arg.c_str()};
        if (!admin_port_path.empty())
            args.push_back(admin_arg.c_str());
        if (reset)
            args.push_back("--reset");
        args.push_back(nullptr);
        ::execv(bin.c_str(), const_cast<char* const*>(args.data()));
        ::_exit(127);
    }
    // Readiness handshake: poll for the port file.
    for (int i = 0; i < 1000; ++i) {
        std::FILE* f = std::fopen(port_path.c_str(), "r");
        if (f) {
            unsigned p = 0;
            const int got = std::fscanf(f, "%u", &p);
            std::fclose(f);
            if (got == 1 && p != 0) {
                sp.pid = pid;
                sp.port = static_cast<uint16_t>(p);
                return sp;
            }
        }
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid)
            return sp; // died before binding
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return sp;
}

void
kill_server(ServerProcess& sp)
{
    if (sp.pid > 0) {
        ::kill(sp.pid, SIGKILL);
        ::waitpid(sp.pid, nullptr, 0);
        sp.pid = -1;
    }
}

/** Per-key client-side model of what the server may legally hold. */
struct KeyModel
{
    std::vector<uint64_t> sent; ///< every value ever pipelined, in order
    size_t acked = 0;           ///< prefix of `sent` known durable
};

std::string
e2e_key(int i)
{
    return "ek" + std::to_string(i);
}

/**
 * Verify the recovered server against the model: each key's value must
 * be one the client sent, at or after the last acknowledged write
 * (at-least-once execution of unacked requests is legal; losing an
 * acked one, inventing a value, or reordering backwards is not).
 */
void
verify_model(MemcClient& c, const std::map<int, KeyModel>& model)
{
    for (const auto& [i, km] : model) {
        if (km.sent.empty())
            continue;
        uint64_t v = 0;
        const bool present = c.get(e2e_key(i), &v);
        if (km.acked > 0) {
            ASSERT_TRUE(present)
                << "key " << i << " lost " << km.acked << " acked writes";
        }
        if (!present)
            continue;
        size_t idx = km.sent.size();
        for (size_t s = 0; s < km.sent.size(); ++s) {
            if (km.sent[s] == v) {
                idx = s;
                break;
            }
        }
        ASSERT_LT(idx, km.sent.size())
            << "key " << i << " holds value " << v
            << " the client never sent";
        if (km.acked > 0) {
            EXPECT_GE(idx + 1, km.acked)
                << "key " << i << " rolled back behind its last acked "
                << "write (value " << v << ")";
        }
    }
}

struct TempDir
{
    TempDir()
    {
        char tmpl[] = "/tmp/ido_serve_test_XXXXXX";
        char* d = ::mkdtemp(tmpl);
        EXPECT_NE(d, nullptr);
        path = d ? d : "";
    }
    ~TempDir()
    {
        if (path.empty())
            return;
        ::unlink((path + "/cache.heap").c_str());
        ::unlink((path + "/port").c_str());
        ::unlink((path + "/admin_port").c_str());
        ::rmdir(path.c_str());
    }
    std::string path;
};

/** Port number from a port file written by ido_serve; 0 on error. */
uint16_t
read_port_file(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (!f)
        return 0;
    unsigned p = 0;
    const int got = std::fscanf(f, "%u", &p);
    std::fclose(f);
    return got == 1 ? static_cast<uint16_t>(p) : 0;
}

/**
 * One crash round: pipeline `total` sets over `keys` keys, SIGKILL the
 * server after `kill_after_acks` acknowledgements, restart, reconnect
 * with retry/backoff, verify the model, and leave the server running.
 */
void
crash_round(const std::string& bin, const std::string& heap_path,
            const std::string& port_path, std::map<int, KeyModel>* model,
            uint64_t* next_value, ServerProcess* sp, int keys, int total,
            size_t kill_after_acks,
            const std::string& admin_port_path = "")
{
    MemcClient c;
    ASSERT_TRUE(c.connect_retry("127.0.0.1", sp->port, 100, 20));

    std::vector<int> order;
    for (int n = 0; n < total; ++n) {
        const int i = n % keys;
        const uint64_t v = (*next_value)++;
        c.pipeline_set(e2e_key(i), v);
        (*model)[i].sent.push_back(v);
        order.push_back(i);
    }
    const size_t acks = c.pipeline_flush(kill_after_acks);
    // In-order replies: exactly the first `acks` pipelined requests
    // are known durable.  Per key, everything but this round's
    // unacked tail is acknowledged.
    std::map<int, size_t> sent_count, acked_count;
    for (int n = 0; n < total; ++n)
        ++sent_count[order[static_cast<size_t>(n)]];
    for (size_t n = 0; n < acks; ++n)
        ++acked_count[order[n]];
    for (auto& [i, km] : *model) {
        auto sent_it = sent_count.find(i);
        if (sent_it == sent_count.end())
            continue; // key untouched this round
        const size_t unacked = sent_it->second - acked_count[i];
        km.acked = km.sent.size() - unacked;
    }

    kill_server(*sp); // mid-pipeline: outstanding requests die with it
    c.close();

    *sp = spawn_server(bin, heap_path, port_path, /*shards=*/4,
                       /*batch=*/16, /*reset=*/false, admin_port_path);
    ASSERT_GT(sp->pid, 0) << "server failed to restart after kill -9";

    MemcClient c2;
    ASSERT_TRUE(c2.connect_retry("127.0.0.1", sp->port, 100, 20));
    verify_model(c2, *model);

    // The recovered server must accept fresh traffic on every shard.
    for (int i = 0; i < keys; ++i) {
        const uint64_t v = (*next_value)++;
        ASSERT_TRUE(c2.set(e2e_key(i), v)) << "post-recovery set failed";
        (*model)[i].sent.push_back(v);
        (*model)[i].acked = (*model)[i].sent.size();
    }
}

const char*
serve_bin()
{
    return std::getenv("IDO_SERVE_BIN");
}

TEST(KillNine, UnderLoadEveryAckedWriteSurvives)
{
    const char* bin = serve_bin();
    if (!bin)
        GTEST_SKIP() << "IDO_SERVE_BIN not set";
    TempDir dir;
    ASSERT_FALSE(dir.path.empty());
    const std::string heap_path = dir.path + "/cache.heap";
    const std::string port_path = dir.path + "/port";
    const std::string admin_path = dir.path + "/admin_port";

    ServerProcess sp = spawn_server(bin, heap_path, port_path, 4, 16,
                                    /*reset=*/true, admin_path);
    ASSERT_GT(sp.pid, 0) << "server failed to start";

    std::map<int, KeyModel> model;
    uint64_t next_value = 1;
    // Three deterministic kill points: early (mid first batches), mid,
    // and late (most of the pipeline acked).
    crash_round(bin, heap_path, port_path, &model, &next_value, &sp,
                /*keys=*/32, /*total=*/400, /*kill_after_acks=*/37,
                admin_path);
    crash_round(bin, heap_path, port_path, &model, &next_value, &sp,
                /*keys=*/32, /*total=*/400, /*kill_after_acks=*/201,
                admin_path);
    crash_round(bin, heap_path, port_path, &model, &next_value, &sp,
                /*keys=*/32, /*total=*/400, /*kill_after_acks=*/389,
                admin_path);

    // The respawned server ran real crash recovery: the structured
    // timeline must be recorded and its counters published.
    MemcClient c;
    ASSERT_TRUE(c.connect_retry("127.0.0.1", sp.port, 100, 20));
    std::map<std::string, std::string> st;
    ASSERT_TRUE(c.stats(&st));
    ASSERT_TRUE(st.count("recovery.count"))
        << "recovery counters missing after kill -9 respawn";
    EXPECT_GE(std::stoull(st["recovery.count"]), 1u);
    ASSERT_TRUE(st.count("recovery.wall_ns"));

    const uint16_t admin_port = read_port_file(admin_path);
    ASSERT_NE(admin_port, 0) << "admin port file missing";
    std::string body;
    ASSERT_TRUE(net::admin_http_get(admin_port, "/recovery", &body));
    EXPECT_NE(body.find("\"recorded\":true"), std::string::npos) << body;
    EXPECT_NE(body.find("\"trigger\":\"crash\""), std::string::npos)
        << body;
    EXPECT_NE(body.find("\"phases\":["), std::string::npos) << body;
    EXPECT_NE(body.find("scan-log-records"), std::string::npos) << body;

    kill_server(sp);
}

TEST(KillNine, Soak)
{
    const char* bin = serve_bin();
    if (!bin)
        GTEST_SKIP() << "IDO_SERVE_BIN not set";
    double budget = 2.0;
    if (const char* s = std::getenv("IDO_SOAK_SECONDS"))
        budget = std::atof(s);

    TempDir dir;
    ASSERT_FALSE(dir.path.empty());
    const std::string heap_path = dir.path + "/cache.heap";
    const std::string port_path = dir.path + "/port";

    ServerProcess sp = spawn_server(bin, heap_path, port_path, 4, 16,
                                    /*reset=*/true);
    ASSERT_GT(sp.pid, 0) << "server failed to start";

    std::map<int, KeyModel> model;
    uint64_t next_value = 1;
    Rng rng(20260806); // fixed seed: deterministic kill points
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(budget);
    int rounds = 0;
    while (std::chrono::steady_clock::now() < deadline) {
        const size_t kill_at = 1 + rng.next_below(390);
        crash_round(bin, heap_path, port_path, &model, &next_value, &sp,
                    /*keys=*/32, /*total=*/400, kill_at);
        if (::testing::Test::HasFatalFailure())
            break;
        ++rounds;
    }
    kill_server(sp);
    EXPECT_GE(rounds, 1) << "soak budget too small to run one round";
    std::printf("soak: %d crash/recover rounds, %llu writes modeled\n",
                rounds,
                static_cast<unsigned long long>(next_value - 1));
}

} // namespace
} // namespace ido
