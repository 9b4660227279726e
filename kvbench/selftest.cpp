/**
 * @file
 * Checks of the benchmark's own pieces (`kvbench --selftest`): stream
 * determinism, the percentile reporting rule, and that a planted wrong
 * value, a planted lost acknowledgement and a server that dies
 * mid-burst are all flagged.
 */
#include <cstdio>
#include <string>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "client.h"
#include "support.h"

namespace kvbench {

namespace {

int g_failures = 0;

void
expect(bool ok, const char* what)
{
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
    g_failures += !ok;
}

bool
same_stream(uint64_t seed_a, uint32_t lane_a, uint64_t seed_b, uint32_t lane_b)
{
    const Slice s{0, 1000};
    const Mix mix{400, 200};
    StreamGen a(seed_a, lane_a, s, mix), b(seed_b, lane_b, s, mix);
    for (int i = 0; i < 10000; ++i) {
        const Op x = a.next(), y = b.next();
        if (x.kind != y.kind || x.key != y.key || x.value != y.value)
            return false;
    }
    return true;
}

KeyState
parse_get(const std::string& wire)
{
    ReplyReader r;
    r.feed(wire.data(), wire.size());
    KeyState got;
    if (r.next(OpKind::kGet, &got) != ReplyReader::Status::kOk)
        return {true, ~uint64_t{0}};
    return got;
}

/**
 * A pipeline whose server answers `replies` of the first 4-deep burst of
 * gets, then closes the connection.  Returns the phase's counters.
 */
PhaseStats
server_dies_mid_burst(int replies, bool* broken)
{
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0)
        return {};
    std::thread server([fd = fds[1], replies] {
        char buf[256];
        if (::read(fd, buf, sizeof buf) > 0)
            for (int i = 0; i < replies; ++i)
                if (::write(fd, "END\r\n", 5) != 5)
                    break;
        ::close(fd);
    });
    Conn conn;
    conn.adopt(fds[0]);
    Model model(8);
    Spans spans(false);
    Pipeline p(model, spans, 4);
    p.add_lane(&conn, [k = uint32_t{0}](Op* op) mutable {
        *op = {OpKind::kGet, k++ % 8, 0};
        return true;
    });
    const PhaseStats st = p.run(now_ns() + 10'000'000'000ull, 0, true);
    server.join();
    *broken = p.broken();
    return st;
}

} // namespace

int
run_selftest()
{
    expect(same_stream(7, 0, 7, 0), "same seed generates the same stream");
    expect(!same_stream(7, 0, 8, 0), "another seed generates another stream");
    expect(!same_stream(7, 0, 7, 1), "lanes of one seed draw their own streams");
    {
        StreamGen g(3, 0, {100, 200}, {400, 200});
        bool in_slice = true;
        int sets = 0, dels = 0;
        for (int i = 0; i < 100000; ++i) {
            const Op op = g.next();
            in_slice &= op.key >= 100 && op.key < 200;
            sets += op.kind == OpKind::kSet;
            dels += op.kind == OpKind::kDel;
        }
        expect(in_slice, "a lane only touches its own key slice");
        expect(sets > 39000 && sets < 41000 && dels > 19000 && dels < 21000,
               "the mix follows its per-mille shares");
    }

    {
        Samples s;
        for (uint64_t v = 1; v <= 999; ++v)
            s.add(v);
        double p = 0;
        expect(!s.percentile(0.99, &p), "p99 withheld with 9 samples beyond");
        s.add(1000);
        expect(s.percentile(0.99, &p) && p == 990.0,
               "p99 reported with 10 samples beyond");
        Samples m;
        for (uint64_t v = 1; v <= 19; ++v)
            m.add(v);
        expect(!m.percentile(0.5, &p), "p50 withheld with 9 samples beyond");
        m.add(20);
        expect(m.percentile(0.5, &p) && p == 10.0,
               "p50 reported with 10 samples beyond");
        Samples few;
        for (uint64_t v = 1; v <= 9; ++v)
            few.add(v);
        expect(!few.mean(&p), "mean withheld with 9 samples");
        few.add(10);
        expect(few.mean(&p) && p == 5.5, "mean reported with 10 samples");
    }

    {
        Model model(8);
        model.apply({OpKind::kSet, 3, 7});
        const Op get3{OpKind::kGet, 3, 0};
        expect(check_reply(model, get3, parse_get("VALUE k3 0 1\r\n7\r\nEND\r\n")),
               "a right value passes");
        expect(!check_reply(model, get3, parse_get("VALUE k3 0 1\r\n8\r\nEND\r\n")),
               "a planted wrong value is flagged");
        expect(!check_reply(model, get3, parse_get("END\r\n")),
               "a planted miss of a stored key is flagged");
        expect(!check_reply(model, {OpKind::kGet, 4, 0},
                            parse_get("VALUE k4 0 1\r\n1\r\nEND\r\n")),
               "a value for a never-written key is flagged");
    }

    {
        const KeyState acked{true, 5};
        const std::vector<Op> inflight = {{OpKind::kSet, 1, 6},
                                          {OpKind::kDel, 1, 0}};
        expect(crash_state_ok(acked, inflight, {true, 5}),
               "crash: acked state accepted");
        expect(crash_state_ok(acked, inflight, {true, 6}) &&
                   crash_state_ok(acked, inflight, {false, 0}),
               "crash: any prefix of unacked writes accepted");
        expect(!crash_state_ok(acked, {}, {false, 0}),
               "crash: a planted lost acked set is flagged");
        expect(!crash_state_ok({false, 0}, {}, {true, 5}),
               "crash: a planted lost acked delete is flagged");
        expect(!crash_state_ok(acked, inflight, {true, 9}),
               "crash: a torn or foreign value is flagged");
    }
    {
        bool broken = false;
        const PhaseStats st = server_dies_mid_burst(2, &broken);
        expect(broken && st.attempted == 4 && st.acked == 2 && st.failed == 2,
               "a server that dies mid-burst fails the unanswered requests");
        const PhaseStats none = server_dies_mid_burst(0, &broken);
        expect(broken && none.failed == 4 && none.pooled().acked == 0,
               "a server that dies before replying fails the whole burst");
    }
    std::printf("%s\n", g_failures ? "selftest FAILED" : "selftest passed");
    return g_failures ? 1 : 0;
}

} // namespace kvbench
