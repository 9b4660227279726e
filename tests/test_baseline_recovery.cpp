/**
 * @file
 * Recovery-semantics tests for the baseline runtimes: Atlas rollback
 * (including cross-FASE dependence dooming), Mnemosyne redo replay,
 * JUSTDO resumption, NVML undo, NVThreads page replay -- and the
 * NVThreads chunk merge under false page sharing.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "baselines/atlas_runtime.h"
#include "baselines/justdo_runtime.h"
#include "baselines/mnemosyne_runtime.h"
#include "baselines/nvml_runtime.h"
#include "baselines/nvthreads_runtime.h"
#include "baselines/runtime_factory.h"
#include "ds/fase_ids.h"
#include "ido/ido_log.h"
#include "ds/stack.h"
#include "ds/workload.h"
#include "nvm/shadow_domain.h"

namespace ido::baselines {
namespace {

using nvm::CrashPolicy;

/** Shared world: shadow-backed heap + pluggable runtime. */
struct World
{
    World(RuntimeKind kind, uint64_t seed)
        : kind_(kind), heap({.size = 32u << 20}),
          shadow(heap.base(), heap.size(), seed)
    {
        ds::register_all_programs();
        make_runtime();
    }

    void
    make_runtime()
    {
        rt::RuntimeConfig cfg;
        cfg.check_contracts = true;
        cfg.log_bytes_per_thread = 1u << 20;
        runtime = make_runtime_for(kind_, cfg);
    }

    std::unique_ptr<rt::Runtime>
    make_runtime_for(RuntimeKind kind, const rt::RuntimeConfig& cfg)
    {
        return baselines::make_runtime(kind, heap, shadow, cfg);
    }

    void
    crash_and_recover(CrashPolicy policy)
    {
        shadow.crash(policy);
        make_runtime();
        runtime->recover();
        shadow.drain_all();
    }

    RuntimeKind kind_;
    nvm::PersistentHeap heap;
    nvm::ShadowDomain shadow;
    std::unique_ptr<rt::Runtime> runtime;
};

template <typename Op>
bool
crash_at(World& world, int64_t k, Op&& op)
{
    world.runtime->crash_scheduler().arm(k);
    bool crashed = false;
    try {
        op();
    } catch (const rt::SimCrashException&) {
        crashed = true;
    }
    world.runtime->crash_scheduler().disarm();
    return crashed;
}

class BaselineCrashSweep
    : public ::testing::TestWithParam<RuntimeKind>
{
};

/**
 * Atomicity sweep shared by every recoverable runtime: crash a stack
 * push at every opportunity; after recovery the stack holds either the
 * old contents or old+new -- never a torn state.
 */
TEST_P(BaselineCrashSweep, StackPushAtomicAtEveryCrashPoint)
{
    const RuntimeKind kind = GetParam();
    for (int64_t k = 1; k < 250; ++k) {
        World world(kind, 100 + k);
        auto setup = world.runtime->make_thread();
        ds::PStack stack(ds::PStack::create(*setup));
        stack.push(*setup, 111);
        world.shadow.drain_all();
        setup.reset();

        bool crashed;
        {
            auto th = world.runtime->make_thread();
            crashed =
                crash_at(world, k, [&] { stack.push(*th, 222); });
        }
        if (!crashed)
            break;
        world.crash_and_recover(CrashPolicy::kRandom);

        const auto snap =
            ds::PStack::snapshot(world.heap, stack.root_off());
        ASSERT_TRUE(ds::PStack::check_invariants(world.heap,
                                                 stack.root_off()))
            << runtime_kind_name(kind) << " k=" << k;
        if (snap.size() == 2) {
            EXPECT_EQ(snap[0], 222u);
            EXPECT_EQ(snap[1], 111u);
        } else {
            ASSERT_EQ(snap.size(), 1u)
                << runtime_kind_name(kind) << " k=" << k;
            EXPECT_EQ(snap[0], 111u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Recoverable, BaselineCrashSweep,
    ::testing::Values(RuntimeKind::kAtlas, RuntimeKind::kMnemosyne,
                      RuntimeKind::kJustdo, RuntimeKind::kNvml,
                      RuntimeKind::kNvthreads),
    [](const ::testing::TestParamInfo<RuntimeKind>& info) {
        return runtime_kind_name(info.param);
    });

TEST(AtlasRecovery, RollsBackIncompleteFase)
{
    World world(RuntimeKind::kAtlas, 7);
    auto th = world.runtime->make_thread();
    const uint64_t cell = th->nv_alloc(64);
    th->store_u64(cell, 10); // outside FASE: direct
    world.shadow.drain_all();

    // Crash mid-FASE, after the first in-place store.
    static uint64_t cell_off;
    cell_off = cell;
    auto r0 = +[](rt::RuntimeThread& t, rt::RegionCtx&) -> uint32_t {
        t.store_u64(cell_off, 20);
        // Deterministic crash point: the very next opportunity (the
        // second store's instrumentation) fires.
        t.runtime().crash_scheduler().arm(1);
        t.store_u64(cell_off + 8, 21);
        return rt::kRegionEnd;
    };
    rt::FaseProgram p;
    p.fase_id = 9100;
    p.name = "atlas_rollback";
    p.regions = {{r0, "w", 0, 0, 0, 0}};

    rt::RegionCtx ctx;
    bool crashed = false;
    try {
        th->run_fase(p, ctx);
    } catch (const rt::SimCrashException&) {
        crashed = true;
    }
    ASSERT_TRUE(crashed);
    world.runtime->crash_scheduler().disarm();
    th.reset();
    world.shadow.crash(CrashPolicy::kPersistAll); // store leaked to NVM
    world.make_runtime();
    world.runtime->recover();
    world.shadow.drain_all();

    // UNDO must restore the pre-FASE value.
    EXPECT_EQ(*world.heap.resolve<uint64_t>(cell), 10u);
}

TEST(AtlasRecovery, DoomsDependentCompletedFase)
{
    // FASE A (interrupted) releases a lock; FASE B (completed)
    // acquires it and overwrites the same cell.  Atlas must roll BOTH
    // back: B observed A's lock and thus potentially its data.
    World world(RuntimeKind::kAtlas, 8);
    auto th = world.runtime->make_thread();
    const uint64_t cell = th->nv_alloc(128);
    const uint64_t lock_slot = cell + 64;
    th->store_u64(cell, 1);
    world.shadow.drain_all();

    static uint64_t c, l;
    c = cell;
    l = lock_slot;

    // FASE A: lock; store 2; unlock; <store 3; crash before finishing>
    auto a0 = +[](rt::RuntimeThread& t, rt::RegionCtx&) -> uint32_t {
        t.fase_lock(l);
        return 1;
    };
    auto a1 = +[](rt::RuntimeThread& t, rt::RegionCtx&) -> uint32_t {
        t.store_u64(c, 2);
        return 2;
    };
    auto a2 = +[](rt::RuntimeThread& t, rt::RegionCtx&) -> uint32_t {
        t.fase_unlock(l);
        return 3;
    };
    auto a3 = +[](rt::RuntimeThread& t, rt::RegionCtx&) -> uint32_t {
        t.store_u64(c + 8, 99); // unrelated tail work, crashes here
        t.runtime().crash_scheduler().arm(1);
        t.store_u64(c + 16, 99);
        return rt::kRegionEnd;
    };
    rt::FaseProgram pa;
    pa.fase_id = 9101;
    pa.name = "fase_a";
    pa.regions = {{a0, "l", 0, 0, 0, 0},
                  {a1, "w", 0, 0, 0, 0},
                  {a2, "u", 0, 0, 0, 0},
                  {a3, "tail", 0, 0, 0, 0}};

    // FASE B: lock; store 5; unlock -- runs to completion.
    auto b0 = +[](rt::RuntimeThread& t, rt::RegionCtx&) -> uint32_t {
        t.fase_lock(l);
        return 1;
    };
    auto b1 = +[](rt::RuntimeThread& t, rt::RegionCtx&) -> uint32_t {
        t.store_u64(c, 5);
        return 2;
    };
    auto b2 = +[](rt::RuntimeThread& t, rt::RegionCtx&) -> uint32_t {
        t.fase_unlock(l);
        return rt::kRegionEnd;
    };
    rt::FaseProgram pb;
    pb.fase_id = 9102;
    pb.name = "fase_b";
    pb.regions = {{b0, "l", 0, 0, 0, 0},
                  {b1, "w", 0, 0, 0, 0},
                  {b2, "u", 0, 0, 0, 0}};

    // Run A until it crashes in its tail region (armed inside a3)...
    rt::RegionCtx ctx;
    bool crashed = false;
    try {
        th->run_fase(pa, ctx);
    } catch (const rt::SimCrashException&) {
        crashed = true;
    }
    world.runtime->crash_scheduler().disarm();
    ASSERT_TRUE(crashed);

    // ...then B runs (and completes) on another thread before the
    // "machine" goes down.
    {
        auto th_b = world.runtime->make_thread();
        rt::RegionCtx ctx_b;
        th_b->run_fase(pb, ctx_b);
    }
    th.reset();
    world.shadow.crash(CrashPolicy::kPersistAll);
    world.make_runtime();
    world.runtime->recover();
    world.shadow.drain_all();

    // Both A's and B's effects must be gone.
    EXPECT_EQ(*world.heap.resolve<uint64_t>(cell), 1u);
}

TEST(MnemosyneRecovery, ReplaysCommittedRedoLog)
{
    static uint64_t c2;
    auto r0 = +[](rt::RuntimeThread& t, rt::RegionCtx&) -> uint32_t {
        t.store_u64(c2, 77);
        t.store_u64(c2 + 8, 78);
        return rt::kRegionEnd;
    };
    rt::FaseProgram p;
    p.fase_id = 9103;
    p.name = "mn_commit";
    p.regions = {{r0, "w", 0, 0, 0, 0}};

    // Sweep the crash point across the whole commit protocol: the
    // outcome must always be both-stores or neither (redo replay
    // covers the commit-flag-persisted window).
    for (int64_t k = 1; k < 60; ++k) {
        World w2(RuntimeKind::kMnemosyne, 90 + k);
        auto t2 = w2.runtime->make_thread();
        const uint64_t cc = t2->nv_alloc(64);
        c2 = cc;
        w2.shadow.drain_all();
        const bool crashed = crash_at(w2, k, [&] {
            rt::RegionCtx ctx;
            t2->run_fase(p, ctx);
        });
        t2.reset();
        if (!crashed)
            break;
        w2.crash_and_recover(CrashPolicy::kRandom);
        const uint64_t v0 = *w2.heap.resolve<uint64_t>(cc);
        const uint64_t v1 = *w2.heap.resolve<uint64_t>(cc + 8);
        // Atomic: both or neither.
        EXPECT_TRUE((v0 == 77 && v1 == 78) || (v0 == 0 && v1 == 0))
            << "k=" << k << " v0=" << v0 << " v1=" << v1;
    }
}

TEST(JustdoRecovery, ResumesAndCompletesFase)
{
    World world(RuntimeKind::kJustdo, 11);
    // Covered structurally by the parameterized sweep; here check the
    // log record lifecycle.
    auto th = world.runtime->make_thread();
    auto* jt = static_cast<JustdoThread*>(th.get());
    ds::PStack stack(ds::PStack::create(*th));
    stack.push(*th, 1);
    EXPECT_EQ(jt->rec()->cur().recovery_pc, kInactivePc);
    EXPECT_EQ(jt->rec()->st_addr_off, 0u);
    EXPECT_EQ(jt->rec()->lock_bitmap, 0u);
}

TEST(NvmlRecovery, UndoesInterruptedTransaction)
{
    World world(RuntimeKind::kNvml, 12);
    auto th = world.runtime->make_thread();
    const uint64_t cell = th->nv_alloc(64);
    th->store_u64(cell, 10);
    th->store_u64(cell + 8, 11);
    world.shadow.drain_all();

    static uint64_t c3;
    c3 = cell;
    auto r0 = +[](rt::RuntimeThread& t, rt::RegionCtx&) -> uint32_t {
        t.store_u64(c3, 20);
        t.runtime().crash_scheduler().arm(1);
        t.store_u64(c3 + 8, 21);
        return rt::kRegionEnd;
    };
    rt::FaseProgram p;
    p.fase_id = 9104;
    p.name = "nvml_undo";
    p.regions = {{r0, "w", 0, 0, 0, 0}};

    bool crashed = false;
    try {
        rt::RegionCtx ctx;
        th->run_fase(p, ctx);
    } catch (const rt::SimCrashException&) {
        crashed = true;
    }
    ASSERT_TRUE(crashed);
    world.runtime->crash_scheduler().disarm();
    th.reset();
    world.crash_and_recover(CrashPolicy::kPersistAll);
    EXPECT_EQ(*world.heap.resolve<uint64_t>(cell), 10u);
    EXPECT_EQ(*world.heap.resolve<uint64_t>(cell + 8), 11u);
}

/**
 * NVThreads false page sharing: thread A dirties chunk 0 of a page,
 * thread B then durably writes chunk 1 of the same page, and A stores
 * four bytes into chunk 1 before it commits.  A's merge must carry
 * B's other four bytes, not the chunk as it stood when A first
 * touched the page.
 */
TEST(NvthreadsPages, SubChunkStoreMergesAnotherThreadsBytes)
{
    nvm::PersistentHeap heap({.size = 4u << 20});
    nvm::RealDomain dom;
    NvthreadsRuntime runtime(heap, dom, rt::RuntimeConfig{});
    const uint64_t block = runtime.allocator().alloc(3 * kNvtPageBytes, dom);
    ASSERT_NE(block, 0u);
    static uint64_t page;
    static std::atomic<int> step;
    page = (block + kNvtPageBytes - 1) & ~uint64_t{kNvtPageBytes - 1};
    step = 0;

    auto a_body = +[](rt::RuntimeThread& th, rt::RegionCtx&) -> uint32_t {
        th.store_u64(page, 0xaaaaaaaaaaaaaaaaull);
        step = 1; // chunk 0 dirty: let B run
        while (step.load() != 2)
            std::this_thread::yield();
        const uint32_t low = 0x11111111;
        th.store_bytes(page + 8, &low, sizeof low);
        return rt::kRegionEnd;
    };
    auto b_body = +[](rt::RuntimeThread& th, rt::RegionCtx&) -> uint32_t {
        th.store_u64(page + 8, 0xbbbbbbbbccccccccull);
        return rt::kRegionEnd;
    };
    rt::FaseProgram a, b;
    a.fase_id = 9100;
    a.name = "nvt.a";
    a.regions = {{a_body, "a", 0, 0, 0, 0}};
    b.fase_id = 9101;
    b.name = "nvt.b";
    b.regions = {{b_body, "b", 0, 0, 0, 0}};

    std::thread ta([&] {
        auto th = runtime.make_thread();
        rt::RegionCtx ctx;
        th->run_fase(a, ctx);
    });
    while (step.load() != 1)
        std::this_thread::yield();
    {
        auto th = runtime.make_thread();
        rt::RegionCtx ctx;
        th->run_fase(b, ctx);
    }
    step = 2;
    ta.join();

    EXPECT_EQ(*heap.resolve<uint64_t>(page), 0xaaaaaaaaaaaaaaaaull);
    EXPECT_EQ(*heap.resolve<uint64_t>(page + 8), 0xbbbbbbbb11111111ull);
}

TEST(RuntimeTraits, TableTwoProperties)
{
    nvm::PersistentHeap heap({.size = 4u << 20});
    nvm::RealDomain dom;
    rt::RuntimeConfig cfg;
    struct Expect
    {
        RuntimeKind kind;
        const char* recovery;
        const char* granularity;
        bool deps;
    };
    const Expect table[] = {
        {RuntimeKind::kIdo, "Resumption", "Idempotent Region", false},
        {RuntimeKind::kAtlas, "UNDO", "Store", true},
        {RuntimeKind::kMnemosyne, "REDO", "Store", false},
        {RuntimeKind::kJustdo, "Resumption", "Store", false},
        {RuntimeKind::kNvml, "UNDO", "Object", false},
        {RuntimeKind::kNvthreads, "REDO", "Page", true},
    };
    for (const Expect& e : table) {
        auto rt = make_runtime(e.kind, heap, dom, cfg);
        EXPECT_STREQ(rt->traits().recovery, e.recovery);
        EXPECT_STREQ(rt->traits().granularity, e.granularity);
        EXPECT_EQ(rt->traits().dependence_tracking, e.deps);
    }
}

} // namespace
} // namespace ido::baselines
