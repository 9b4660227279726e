#include "support.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include <sched.h>

#include "apps/memcached_client.h"

namespace kvbench {

StreamGen::StreamGen(uint64_t seed, uint32_t lane, Slice slice, Mix mix)
    : rng_(seed * 0x9e3779b97f4a7c15ull + 0x632be59bd9b4e019ull * (lane + 1)),
      slice_(slice), mix_(mix)
{
}

Op
StreamGen::next()
{
    Op op;
    op.key = slice_.begin + static_cast<uint32_t>(rng_.next_below(slice_.size()));
    const uint64_t draw = rng_.next_below(1000);
    if (draw < mix_.set_permille) {
        op.kind = OpKind::kSet;
        op.value = rng_.next();
    } else if (draw < mix_.set_permille + mix_.del_permille) {
        op.kind = OpKind::kDel;
    }
    return op;
}

std::string
key_text(uint32_t key)
{
    return ido::apps::memcached_key_text(key);
}

void
Model::apply(const Op& op)
{
    KeyState& s = states_[op.key];
    if (op.kind == OpKind::kSet)
        s = {true, op.value};
    else if (op.kind == OpKind::kDel)
        s = {false, 0};
}

uint64_t
Model::live_items() const
{
    uint64_t n = 0;
    for (const KeyState& s : states_)
        n += s.present;
    return n;
}

bool
check_reply(const Model& model, const Op& op, const KeyState& got)
{
    const KeyState& want = model.at(op.key);
    switch (op.kind) {
    case OpKind::kGet:
        return got == want;
    case OpKind::kDel:
        return got.present == want.present;
    case OpKind::kSet:
        return got.present;
    }
    return false;
}

bool
crash_state_ok(const KeyState& acked, const std::vector<Op>& unacked_writes,
               const KeyState& seen)
{
    KeyState s = acked;
    if (seen == s)
        return true;
    for (const Op& w : unacked_writes) {
        if (w.kind == OpKind::kSet)
            s = {true, w.value};
        else if (w.kind == OpKind::kDel)
            s = {false, 0};
        if (seen == s)
            return true;
    }
    return false;
}

bool
Samples::percentile(double q, double* out_ns) const
{
    const size_t n = v_.size();
    if (n == 0)
        return false;
    // Nearest-rank: the value at rank ceil(q*n); the samples beyond it
    // are the n - rank above that rank.
    const size_t rank = static_cast<size_t>(std::ceil(q * double(n)));
    if (rank == 0 || n - rank < 10)
        return false;
    std::nth_element(v_.begin(), v_.begin() + (rank - 1), v_.end());
    *out_ns = v_[rank - 1];
    return true;
}

bool
Samples::mean(double* out_ns) const
{
    if (v_.size() < 10)
        return false;
    double sum = 0;
    for (uint32_t x : v_)
        sum += x;
    *out_ns = sum / double(v_.size());
    return true;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
Spans::add(uint64_t id, const char* name, uint32_t lane, uint64_t start_ns,
           uint64_t end_ns, uint64_t parent, uint64_t req)
{
    if (!enabled_)
        return;
    if (spans_.size() >= kCap) {
        ++dropped_;
        return;
    }
    spans_.push_back({id, name, lane, start_ns, end_ns, parent, req});
}

bool
Spans::write_chrome(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    uint64_t t0 = UINT64_MAX;
    for (const Span& s : spans_)
        t0 = std::min(t0, s.start_ns);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        const uint64_t start = s.start_ns >= t0 ? s.start_ns - t0 : 0;
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                     "\"parent\":%llu,\"req\":%llu}}\n",
                     i ? "," : "", s.name, s.lane, start / 1e3,
                     (s.end_ns - s.start_ns) / 1e3,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.req));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

bool
json_number(const std::string& body, const std::vector<std::string>& path,
            double* out)
{
    size_t pos = 0;
    for (const std::string& key : path) {
        pos = body.find("\"" + key + "\"", pos);
        if (pos == std::string::npos)
            return false;
        pos += key.size() + 2;
    }
    pos = body.find(':', pos);
    if (pos == std::string::npos)
        return false;
    char* end = nullptr;
    const double v = std::strtod(body.c_str() + pos + 1, &end);
    if (end == body.c_str() + pos + 1)
        return false;
    *out = v;
    return true;
}

IdleSpinners::IdleSpinners()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed))
            continue;
        threads_.emplace_back([this, cpu] {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            const sched_param param{};
            if (sched_setaffinity(0, sizeof one, &one) != 0 ||
                sched_setscheduler(0, SCHED_IDLE, &param) != 0)
                return; // never compete with the store at normal priority
            while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__)
                __builtin_ia32_pause();
#endif
            }
        });
    }
}

IdleSpinners::~IdleSpinners()
{
    stop_ = true;
    for (std::thread& t : threads_)
        t.join();
}

double
peak_rss_mb(int pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

CpuTicks
cpu_ticks()
{
    // cpu  user nice system idle iowait irq softirq steal guest guest_nice
    std::ifstream in("/proc/stat");
    std::string label;
    in >> label;
    CpuTicks t;
    for (int i = 0; i < 8; ++i) {
        uint64_t v = 0;
        if (!(in >> v))
            break;
        t.total += v;
        if (i == 7)
            t.steal = v;
    }
    return t;
}

double
steal_pct(const CpuTicks& a, const CpuTicks& b)
{
    const uint64_t total = b.total - a.total;
    return total ? 100.0 * double(b.steal - a.steal) / double(total) : 0.0;
}

StealTimeline::StealTimeline()
{
    samples_.push_back({now_ns(), cpu_ticks()});
    thread_ = std::thread([this] {
        while (!stop_.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            const Sample s{now_ns(), cpu_ticks()};
            const std::lock_guard<std::mutex> g(mu_);
            samples_.push_back(s);
        }
    });
}

StealTimeline::~StealTimeline()
{
    stop_ = true;
    thread_.join();
}

double
StealTimeline::steal_pct(uint64_t t0_ns, uint64_t t1_ns) const
{
    const std::lock_guard<std::mutex> g(mu_);
    // The last sample at or before t0 and the first at or after t1.
    const auto after = [](const Sample& s, uint64_t t) { return s.t_ns < t; };
    auto end = std::lower_bound(samples_.begin(), samples_.end(), t1_ns, after);
    auto begin = std::upper_bound(samples_.begin(), samples_.end(), t0_ns,
                                  [](uint64_t t, const Sample& s) { return t < s.t_ns; });
    if (begin != samples_.begin())
        --begin;
    const CpuTicks last = end == samples_.end() ? cpu_ticks() : end->ticks;
    return kvbench::steal_pct(begin->ticks, last);
}

std::string
machine_tags(uint64_t seed, const std::string& commit, double steal,
             bool comparable)
{
    std::string cpu = "unknown";
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                cpu = line.substr(line.find_first_not_of(' ', colon + 1));
            break;
        }
    }
    std::ostringstream os;
    cpu_set_t set;
    CPU_ZERO(&set);
    const int nproc = sched_getaffinity(0, sizeof set, &set) == 0
                          ? CPU_COUNT(&set)
                          : static_cast<int>(std::thread::hardware_concurrency());
    os << "{\"nproc\":" << nproc
       << ",\"cpu\":\"" << cpu << "\",\"build_type\":\"" KVBENCH_BUILD_TYPE
       << "\",\"compiler\":\"" << __VERSION__ << "\",\"commit\":\""
       << commit << "\",\"seed\":" << seed << ",\"host_steal_pct\":" << steal
       << ",\"comparable\":" << (comparable ? "true" : "false")
       << "}";
    return os.str();
}

} // namespace kvbench
