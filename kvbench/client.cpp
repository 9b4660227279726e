#include "client.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace kvbench {

void
append_wire(const Op& op, std::string* out)
{
    const std::string key = key_text(op.key);
    switch (op.kind) {
    case OpKind::kGet:
        *out += "get " + key + "\r\n";
        break;
    case OpKind::kSet: {
        const std::string v = std::to_string(op.value);
        *out += "set " + key + " 0 0 " + std::to_string(v.size()) + "\r\n" +
                v + "\r\n";
        break;
    }
    case OpKind::kDel:
        *out += "delete " + key + "\r\n";
        break;
    }
}

// --- ReplyReader -------------------------------------------------------

void
ReplyReader::feed(const char* data, size_t n)
{
    if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
        buf_.erase(0, pos_);
        pos_ = 0;
    }
    buf_.append(data, n);
}

bool
ReplyReader::line(std::string_view* out)
{
    const size_t eol = buf_.find("\r\n", pos_);
    if (eol == std::string::npos)
        return false;
    *out = std::string_view(buf_).substr(pos_, eol - pos_);
    pos_ = eol + 2;
    return true;
}

ReplyReader::Status
ReplyReader::next(OpKind kind, KeyState* got)
{
    const size_t start = pos_;
    std::string_view l;
    if (!line(&l))
        return Status::kNeedMore;
    *got = KeyState{};
    switch (kind) {
    case OpKind::kSet:
        if (l == "STORED") {
            got->present = true;
            return Status::kOk;
        }
        if (l == "NOT_STORED")
            return Status::kOk;
        break;
    case OpKind::kDel:
        if (l == "DELETED" || l == "NOT_FOUND") {
            got->present = l == "DELETED";
            return Status::kOk;
        }
        break;
    case OpKind::kGet: {
        if (l == "END")
            return Status::kOk;
        if (!l.starts_with("VALUE "))
            break;
        const size_t sp = l.rfind(' ');
        const std::string bytes_text(l.substr(sp + 1));
        char* end = nullptr;
        const unsigned long bytes = std::strtoul(bytes_text.c_str(), &end, 10);
        if (*end != '\0' || bytes == 0 || bytes > 20)
            return Status::kGarbage;
        if (buf_.size() - pos_ < bytes + 2) {
            pos_ = start;
            return Status::kNeedMore;
        }
        const std::string data = buf_.substr(pos_, bytes);
        pos_ += bytes;
        std::string_view rest;
        if (!line(&rest) || !rest.empty()) {
            if (rest.empty()) { // CRLF after data not yet here
                pos_ = start;
                return Status::kNeedMore;
            }
            return Status::kGarbage;
        }
        std::string_view trailer;
        if (!line(&trailer)) {
            pos_ = start;
            return Status::kNeedMore;
        }
        if (trailer != "END")
            return Status::kGarbage;
        got->present = true;
        got->value = std::strtoull(data.c_str(), &end, 10);
        return *end == '\0' ? Status::kOk : Status::kGarbage;
    }
    }
    if (l.starts_with("SERVER_ERROR") || l.starts_with("CLIENT_ERROR") ||
        l == "ERROR")
        return Status::kRefused;
    return Status::kGarbage;
}

// --- Conn --------------------------------------------------------------

bool
Conn::connect(uint16_t port, int attempts)
{
    close();
    for (int i = 0; i < attempts; ++i) {
        fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd_ < 0)
            return false;
        sockaddr_in a{};
        a.sin_family = AF_INET;
        a.sin_port = htons(port);
        a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<sockaddr*>(&a), sizeof a) == 0) {
            const int one = 1;
            ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
            return true;
        }
        close();
        if (i + 1 < attempts)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
}

void
Conn::close()
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
}

bool
Conn::send_all(const std::string& data)
{
    size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<size_t>(n);
    }
    return true;
}

long
Conn::read_some(ReplyReader* reader)
{
    char buf[16384];
    for (;;) {
        const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n > 0)
            reader->feed(buf, static_cast<size_t>(n));
        return n;
    }
}

// --- Pipeline ----------------------------------------------------------

void
Window::add(const Window& o)
{
    get.append(o.get);
    set.append(o.set);
    del.append(o.del);
    acked += o.acked;
    start_ns = start_ns == 0 ? o.start_ns : std::min(start_ns, o.start_ns);
    ns += o.ns;
}

Window&
PhaseStats::window(uint64_t since_start_ns)
{
    const size_t i = since_start_ns / Window::kNs;
    if (windows.size() <= i)
        windows.resize(i + 1);
    return windows[i];
}

void
PhaseStats::finish(uint64_t wall)
{
    wall_ns = wall;
    for (size_t i = 0; i < windows.size(); ++i) {
        windows[i].start_ns = start_ns + i * Window::kNs;
        windows[i].ns = std::min(Window::kNs, wall - std::min(wall, i * Window::kNs));
    }
}

void
PhaseStats::merge(const PhaseStats& o)
{
    if (windows.size() < o.windows.size())
        windows.resize(o.windows.size());
    for (size_t i = 0; i < o.windows.size(); ++i) {
        const uint64_t ns = std::max(windows[i].ns, o.windows[i].ns);
        windows[i].add(o.windows[i]);
        windows[i].ns = ns; // the same slice of time, not a longer one
    }
    attempted += o.attempted;
    acked += o.acked;
    failed += o.failed;
    wall_ns = std::max(wall_ns, o.wall_ns);
    idle_ns += o.idle_ns;
}

Window
PhaseStats::pooled() const
{
    Window w;
    for (const Window& x : windows)
        w.add(x);
    return w;
}

namespace {
/** A server silent this long has failed the run. */
constexpr int kStallMs = 5000;
} // namespace

Pipeline::Pipeline(Model& model, Spans& spans, uint32_t depth)
    : model_(model), spans_(spans), depth_(depth)
{
}

void
Pipeline::add_lane(Conn* conn, Source source)
{
    auto l = std::make_unique<Lane>();
    l->conn = conn;
    l->source = std::move(source);
    lanes_.push_back(std::move(l));
}

bool
Pipeline::issue(Lane& l)
{
    l.burst.clear();
    l.answered = 0;
    Op op;
    while (l.burst.size() < depth_ && l.source(&op))
        l.burst.push_back(op);
    if (l.burst.empty()) {
        l.exhausted = true;
        return false;
    }
    wire_.clear();
    for (const Op& o : l.burst)
        append_wire(o, &wire_);
    l.t_issue = now_ns();
    l.burst_span = spans_.open();
    ++l.burst_seq;
    return l.conn->send_all(wire_);
}

void
Pipeline::fail(Lane& l, PhaseStats* st)
{
    st->failed += l.burst.size() - l.answered;
    l.broken = true;
}

void
Pipeline::consume(Lane& l, uint32_t lane_id, uint64_t t, Window* w,
                  PhaseStats* st)
{
    static const char* const kNames[] = {"get", "set", "delete"};
    while (l.answered < l.burst.size()) {
        const Op& op = l.burst[l.answered];
        KeyState got;
        const ReplyReader::Status s = l.reader.next(op.kind, &got);
        if (s == ReplyReader::Status::kNeedMore)
            break;
        if (s == ReplyReader::Status::kGarbage) {
            fail(l, st); // framing is lost: no later reply can be trusted
            break;
        }
        bool ok = false;
        if (s == ReplyReader::Status::kOk) {
            if (checker_) {
                ok = checker_(op, got);
            } else {
                ok = check_reply(model_, op, got);
                if (op.kind == OpKind::kDel ||
                    (op.kind == OpKind::kSet && got.present))
                    model_.apply(op);
            }
        }
        ok ? ++st->acked : ++st->failed;
        if (w != nullptr) {
            w->of(op.kind).add(t - l.t_issue);
            w->acked += ok;
        }
        // Request spans for one burst in eight keep a long run's trace
        // within Spans::kCap; every burst gets its own span.
        if (spans_.enabled() && l.burst_seq % 8 == 0)
            spans_.add(spans_.open(), kNames[static_cast<int>(op.kind)],
                       lane_id, l.t_issue, t, l.burst_span,
                       l.burst_seq * depth_ + l.answered);
        ++l.answered;
    }
    if (l.answered == l.burst.size() && spans_.enabled())
        spans_.add(l.burst_span, "burst", lane_id, l.t_issue, t, 0,
                   l.burst_seq);
}

PhaseStats
Pipeline::run(uint64_t deadline_ns, uint64_t stop_after_acks, bool record)
{
    PhaseStats st;
    const uint64_t t_start = now_ns();
    st.start_ns = t_start;
    pollfd pfds[2];
    Lane* polled[2];
    for (;;) {
        const bool issuing = now_ns() < deadline_ns;
        size_t n = 0;
        for (auto& lp : lanes_) {
            Lane& l = *lp;
            if (l.broken)
                continue;
            if (l.answered == l.burst.size()) {
                if (!issuing || l.exhausted)
                    continue;
                const bool sent = issue(l);
                st.attempted += l.burst.size();
                if (!sent) {
                    if (!l.exhausted)
                        fail(l, &st);
                    continue;
                }
            }
            pfds[n] = {l.conn->fd(), POLLIN, 0};
            polled[n++] = &l;
        }
        if (n == 0)
            break;
        const uint64_t t_poll = now_ns();
        const int rc = ::poll(pfds, n, kStallMs);
        const uint64_t t = now_ns();
        st.idle_ns += t - t_poll;
        if (rc < 0 && errno == EINTR)
            continue;
        if (rc <= 0) { // a server that stops answering fails its requests
            for (size_t i = 0; i < n; ++i)
                fail(*polled[i], &st);
            break;
        }
        for (size_t i = 0; i < n; ++i) {
            if (pfds[i].revents == 0)
                continue;
            Lane& l = *polled[i];
            if (l.conn->read_some(&l.reader) <= 0) {
                fail(l, &st); // EOF or error with replies outstanding
                continue;
            }
            const uint32_t lane_id = static_cast<uint32_t>(
                polled[i] == lanes_[0].get() ? 0 : 1);
            consume(l, lane_id, t, record ? &st.window(t - t_start) : nullptr,
                    &st);
        }
        if (stop_after_acks != 0 && st.acked >= stop_after_acks)
            break;
    }
    st.finish(now_ns() - t_start);
    return st;
}

std::vector<Op>
Pipeline::unanswered() const
{
    std::vector<Op> out;
    for (const auto& l : lanes_)
        out.insert(out.end(), l->burst.begin() + l->answered, l->burst.end());
    return out;
}

bool
Pipeline::broken() const
{
    for (const auto& l : lanes_)
        if (l->broken)
            return true;
    return false;
}

void
Pipeline::abandon()
{
    for (auto& l : lanes_) {
        l->burst.clear();
        l->answered = 0;
        l->reader.clear();
        l->broken = false;
    }
}

} // namespace kvbench
