#include "common/spin_delay.h"

#include <atomic>
#include <chrono>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ido {

namespace {

std::atomic<uint64_t> g_iters_per_100ns{0};

inline void
relax_once()
{
#if defined(__x86_64__)
    _mm_pause();
#else
    asm volatile("" ::: "memory");
#endif
}

/** Run the relax loop n times; opaque to the optimizer. */
void
burn(uint64_t n)
{
    for (uint64_t i = 0; i < n; ++i)
        relax_once();
}

uint64_t
calibrate_once()
{
    using clock = std::chrono::steady_clock;
    // Warm up, then time several short bursts and solve for
    // iters/100ns from the fastest.  A preemption inside one long burst
    // would stretch its time and under-calibrate every later delay; the
    // fastest of several bursts is the one nothing interrupted.
    burn(10000);
    constexpr uint64_t kIters = 20'000; // well under a scheduler slice
    constexpr int kBursts = 32;
    int64_t best_ns = 0;
    for (int b = 0; b < kBursts; ++b) {
        const auto t0 = clock::now();
        burn(kIters);
        const auto t1 = clock::now();
        const int64_t ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count();
        if (ns > 0 && (best_ns == 0 || ns < best_ns))
            best_ns = ns;
    }
    if (best_ns <= 0)
        return 100; // pathological timer; fall back to a guess
    uint64_t per_100ns = kIters * 100 / static_cast<uint64_t>(best_ns);
    if (per_100ns == 0)
        per_100ns = 1;
    return per_100ns;
}

} // namespace

void
spin_delay_calibrate()
{
    if (g_iters_per_100ns.load(std::memory_order_relaxed) == 0)
        g_iters_per_100ns.store(calibrate_once(), std::memory_order_relaxed);
}

uint64_t
spin_delay_iters_per_100ns()
{
    spin_delay_calibrate();
    return g_iters_per_100ns.load(std::memory_order_relaxed);
}

void
spin_delay_ns(uint32_t ns)
{
    if (ns == 0)
        return;
    uint64_t per_100ns = g_iters_per_100ns.load(std::memory_order_relaxed);
    if (per_100ns == 0) {
        spin_delay_calibrate();
        per_100ns = g_iters_per_100ns.load(std::memory_order_relaxed);
    }
    burn(per_100ns * ns / 100 + 1);
}

} // namespace ido
