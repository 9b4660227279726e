/**
 * @file
 * Protocol-level tests for iDO normal execution: log-record lifecycle
 * and reuse, recovery_pc sequencing, fence economy (two per boundary
 * with outputs, one without; one per lock operation while the log is
 * live, none for a lock taken or released in the store-free prefix or
 * the retired store-free tail), persist coalescing of register
 * outputs, and lock_array maintenance.
 */
#include <gtest/gtest.h>

#include "apps/memcached_mini.h"
#include "ds/fase_ids.h"
#include "ds/stack.h"
#include "ds/workload.h"
#include "ido/ido_runtime.h"
#include "nvm/persist_domain.h"
#include "stats/persist_stats.h"

namespace ido {
namespace {

struct IdoFixture : public ::testing::Test
{
    IdoFixture()
        : heap({.size = 16u << 20}), dom(),
          runtime(heap, dom, rt::RuntimeConfig{.check_contracts = true})
    {
        ds::register_all_programs();
    }

    nvm::PersistentHeap heap;
    nvm::RealDomain dom;
    IdoRuntime runtime;
};

/**
 * A one-region FASE that may store and takes no lock: its activation
 * must leave the durable lock record naming nothing.  Snapshots the
 * record of `probe` from inside the live region.
 */
struct ActivationProbe
{
    static inline IdoThread* probe = nullptr;
    static inline uint64_t bitmap = ~0ull;
    static inline uint64_t array0 = ~0ull;

    static const rt::FaseProgram&
    program()
    {
        static const rt::FaseProgram prog = [] {
            auto peek = +[](rt::RuntimeThread&, rt::RegionCtx&) -> uint32_t {
                bitmap = probe->rec()->lock_bitmap;
                array0 = probe->rec()->lock_array[0];
                return rt::kRegionEnd;
            };
            rt::FaseProgram p;
            p.fase_id = 9007;
            p.name = "activation_probe";
            p.regions = {{peek, "peek", 0, 0, 0, 0, 1}};
            return p;
        }();
        return prog;
    }

    static void
    run(rt::RuntimeThread& th)
    {
        probe = static_cast<IdoThread*>(&th);
        rt::RegionCtx ctx;
        th.run_fase(program(), ctx);
    }
};

TEST_F(IdoFixture, LogRecLinkedOnThreadCreation)
{
    EXPECT_TRUE(runtime.log_rec_offsets().empty());
    auto t1 = runtime.make_thread();
    EXPECT_EQ(runtime.log_rec_offsets().size(), 1u);
    auto t2 = runtime.make_thread();
    EXPECT_EQ(runtime.log_rec_offsets().size(), 2u);
    // "the number of iDO logs matches the number of threads created"
}

TEST_F(IdoFixture, ExitedThreadsRecordsAreReused)
{
    // Thread churn must not grow the persistent list: a record returns
    // to the pool when its thread exits between FASEs.
    ds::PStack stack(ds::PStack::create(*runtime.make_thread()));
    for (int i = 0; i < 1000; ++i) {
        auto a = runtime.make_thread();
        auto b = runtime.make_thread();
        stack.push(*a, static_cast<uint64_t>(i));
        stack.push(*b, static_cast<uint64_t>(i));
    }
    EXPECT_LE(runtime.log_rec_offsets().size(), 2u);
}

TEST_F(IdoFixture, ReusedRecordActivatesWithNoStaleLock)
{
    // A reused record's lock words are whatever its last owner left:
    // here, the retired tail's release of the stack lock.  The next
    // owner's first activation must record exactly its own locks.
    uint64_t off = 0;
    {
        auto th = runtime.make_thread();
        off = static_cast<IdoThread*>(th.get())->rec_off();
        ds::PStack stack(ds::PStack::create(*th));
        stack.push(*th, 1);
        EXPECT_NE(static_cast<IdoThread*>(th.get())->rec()->lock_bitmap,
                  0u);
    }
    auto th = runtime.make_thread();
    ASSERT_EQ(static_cast<IdoThread*>(th.get())->rec_off(), off);
    ActivationProbe::run(*th);
    EXPECT_EQ(ActivationProbe::bitmap, 0u);
    EXPECT_EQ(ActivationProbe::array0, 0u);
}

TEST_F(IdoFixture, ThreadUnwoundMidFaseKeepsItsRecord)
{
    // A crash that unwinds a thread out of a FASE leaves its record to
    // recovery: the next thread must not reuse it.
    uint64_t off = 0;
    {
        auto th = runtime.make_thread();
        off = static_cast<IdoThread*>(th.get())->rec_off();
        ds::PStack stack(ds::PStack::create(*th));
        runtime.crash_scheduler().arm(3);
        EXPECT_THROW(stack.push(*th, 1), rt::SimCrashException);
        runtime.crash_scheduler().disarm();
    }
    auto th = runtime.make_thread();
    EXPECT_NE(static_cast<IdoThread*>(th.get())->rec_off(), off);
}

TEST_F(IdoFixture, FreshRecIsInactive)
{
    auto th = runtime.make_thread();
    auto* ido_th = static_cast<IdoThread*>(th.get());
    EXPECT_EQ(ido_th->rec()->recovery_pc, kInactivePc);
    EXPECT_EQ(ido_th->rec()->lock_bitmap, 0u);
}

TEST_F(IdoFixture, RecoveryPcInactiveAfterFase)
{
    auto th = runtime.make_thread();
    auto* ido_th = static_cast<IdoThread*>(th.get());
    ds::PStack stack(ds::PStack::create(*th));
    stack.push(*th, 42);
    // The push retired its log before the unlock region: the pc is
    // inactive and no lock is held, while the durable record may still
    // name the released lock until the next activation rewrites it.
    EXPECT_EQ(ido_th->rec()->recovery_pc, kInactivePc);
    EXPECT_EQ(ido_th->lock_mirror(), 0u);
    ActivationProbe::run(*th);
    EXPECT_EQ(ActivationProbe::bitmap, 0u);
    EXPECT_EQ(ActivationProbe::array0, 0u);
    EXPECT_EQ(ido_th->rec()->recovery_pc, kInactivePc);
}

TEST_F(IdoFixture, RecoveryPcTracksRegions)
{
    // A probe program that snapshots its own log record mid-FASE.
    static IdoThread* probe_th;
    static uint64_t pc_seen_in_r1;
    auto r0 = +[](rt::RuntimeThread&, rt::RegionCtx&) -> uint32_t {
        return 1;
    };
    auto r1 = +[](rt::RuntimeThread&, rt::RegionCtx&) -> uint32_t {
        pc_seen_in_r1 = probe_th->rec()->recovery_pc;
        return rt::kRegionEnd;
    };
    rt::FaseProgram p;
    p.fase_id = 9000;
    p.name = "probe";
    p.regions = {{r0, "r0", 0, 0, 0, 0}, {r1, "r1", 0, 0, 0, 0}};

    auto th = runtime.make_thread();
    probe_th = static_cast<IdoThread*>(th.get());
    rt::RegionCtx ctx;
    th->run_fase(p, ctx);
    EXPECT_EQ(pc_seen_in_r1, pack_recovery_pc(9000, 1));
}

TEST_F(IdoFixture, OutputRegistersLandInFixedSlots)
{
    static constexpr uint16_t R2 = 1u << 2, R5 = 1u << 5;
    auto r0 = +[](rt::RuntimeThread&, rt::RegionCtx& ctx) -> uint32_t {
        ctx.r[2] = 0xaa;
        ctx.r[5] = 0xbb;
        ctx.f[1] = 2.5;
        return 1;
    };
    auto r1 = +[](rt::RuntimeThread&, rt::RegionCtx& ctx) -> uint32_t {
        (void)ctx;
        return rt::kRegionEnd;
    };
    rt::FaseProgram p;
    p.fase_id = 9001;
    p.name = "slots";
    p.regions = {{r0, "def", 0, R2 | R5, 0, /*out_float f1*/ 2},
                 {r1, "use", R2 | R5, 0, 2, 0}};

    auto th = runtime.make_thread();
    auto* ido_th = static_cast<IdoThread*>(th.get());
    rt::RegionCtx ctx;
    th->run_fase(p, ctx);
    EXPECT_EQ(ido_th->rec()->intRF[2], 0xaau);
    EXPECT_EQ(ido_th->rec()->intRF[5], 0xbbu);
    EXPECT_EQ(ido_th->rec()->floatRF[1], 2.5);
}

TEST_F(IdoFixture, FenceEconomyPerBoundary)
{
    auto no_out = +[](rt::RuntimeThread&, rt::RegionCtx&) -> uint32_t {
        return 1;
    };
    auto end = +[](rt::RuntimeThread&, rt::RegionCtx&) -> uint32_t {
        return rt::kRegionEnd;
    };
    rt::FaseProgram p;
    p.fase_id = 9002;
    p.name = "fences";
    p.regions = {{no_out, "a", 0, 0, 0, 0}, {end, "b", 0, 0, 0, 0}};

    auto th = runtime.make_thread();
    tls_persist_counters().clear();
    rt::RegionCtx ctx;
    th->run_fase(p, ctx);
    // No args, no outputs, no stores anywhere: every boundary is a
    // single pc fence.  fase_begin(1) + boundary a->b(1) + end(1) = 3.
    EXPECT_EQ(tls_persist_counters().fences, 3u);
    tls_persist_counters().clear();
}

TEST_F(IdoFixture, FenceEconomyWithOutputs)
{
    static constexpr uint16_t R1 = 1u << 1;
    auto def = +[](rt::RuntimeThread&, rt::RegionCtx& ctx) -> uint32_t {
        ctx.r[1] = 5;
        return 1;
    };
    auto use = +[](rt::RuntimeThread&, rt::RegionCtx& ctx) -> uint32_t {
        (void)ctx.r[1];
        return rt::kRegionEnd;
    };
    rt::FaseProgram p;
    p.fase_id = 9003;
    p.name = "fences2";
    p.regions = {{def, "def", 0, R1, 0, 0}, {use, "use", R1, 0, 0, 0}};

    auto th = runtime.make_thread();
    tls_persist_counters().clear();
    rt::RegionCtx ctx;
    th->run_fase(p, ctx);
    // fase_begin persists the args-union (r1 is live-in somewhere):
    // 2 fences; def->use boundary has an output: 2; final: 1.  Total 5.
    EXPECT_EQ(tls_persist_counters().fences, 5u);
    tls_persist_counters().clear();
}

TEST_F(IdoFixture, StackPushFenceBudget)
{
    auto th = runtime.make_thread();
    ds::PStack stack(ds::PStack::create(*th));
    stack.push(*th, 1); // warm the lock table
    tls_persist_counters().clear();
    stack.push(*th, 2);
    // The acquire runs in the store-free lock region, so its record
    // rides the activation; the publish boundary retires the log ahead
    // of the store-free unlock region: activation(2: args+pc)
    // + build(2) + publish(2: heap lines + inactive pc) = 6 fences, and
    // the release and the FASE end pay none.  The allocator adds its
    // own internal fences (one per push here), so bound it.
    EXPECT_GE(tls_persist_counters().fences, 7u);
    EXPECT_LE(tls_persist_counters().fences, 11u);
    tls_persist_counters().clear();
}

TEST_F(IdoFixture, PersistCoalescingFlushesWholeRfLines)
{
    // Eight int outputs in slots 0..7 share one cache line: exactly
    // one RF flush regardless of how many of the eight are written.
    static constexpr uint16_t kLow8 = 0x00ff;
    auto def = +[](rt::RuntimeThread&, rt::RegionCtx& ctx) -> uint32_t {
        for (int i = 0; i < 8; ++i)
            ctx.r[i] = i + 1;
        return 1;
    };
    auto use = +[](rt::RuntimeThread&, rt::RegionCtx& ctx) -> uint32_t {
        (void)ctx;
        return rt::kRegionEnd;
    };
    rt::FaseProgram p;
    p.fase_id = 9004;
    p.name = "coalesce";
    p.regions = {{def, "def", 0, kLow8, 0, 0},
                 {use, "use", kLow8, 0, 0, 0}};

    auto th = runtime.make_thread();
    tls_persist_counters().clear();
    rt::RegionCtx ctx;
    th->run_fase(p, ctx);
    // begin: args flush (1 line) + pc flush; def boundary: 1 RF line
    // + pc; final: pc.  5 flushes total -- not 8+ per-register ones.
    EXPECT_EQ(tls_persist_counters().flushes, 5u);
    tls_persist_counters().clear();
}

TEST_F(IdoFixture, LockArrayTracksHeldLocks)
{
    static IdoThread* probe;
    static uint64_t bitmap_mid, array0_mid;
    static uint64_t holder_slot_off;

    auto lock_r = +[](rt::RuntimeThread& t, rt::RegionCtx&) -> uint32_t {
        t.fase_lock(holder_slot_off);
        return 1;
    };
    auto mid_r = +[](rt::RuntimeThread&, rt::RegionCtx&) -> uint32_t {
        bitmap_mid = probe->rec()->lock_bitmap;
        array0_mid = probe->rec()->lock_array[0];
        return 2;
    };
    auto unlock_r =
        +[](rt::RuntimeThread& t, rt::RegionCtx&) -> uint32_t {
            t.fase_unlock(holder_slot_off);
            return rt::kRegionEnd;
        };
    rt::FaseProgram p;
    p.fase_id = 9005;
    p.name = "locks";
    p.regions = {{lock_r, "l", 0, 0, 0, 0},
                 {mid_r, "m", 0, 0, 0, 0},
                 {unlock_r, "u", 0, 0, 0, 0}};

    auto th = runtime.make_thread();
    probe = static_cast<IdoThread*>(th.get());
    holder_slot_off = runtime.allocator().alloc(64, dom);
    rt::RegionCtx ctx;
    th->run_fase(p, ctx);
    EXPECT_EQ(bitmap_mid, 1u);
    EXPECT_EQ(array0_mid, holder_slot_off);
    EXPECT_EQ(probe->rec()->lock_bitmap, 0u);
    EXPECT_EQ(probe->rec()->lock_array[0], 0u);
}

/**
 * Persist cost of one memcached request on a warm one-bucket cache
 * (real domain, outside group mode): the request's fences and flushes.
 */
struct McCost
{
    uint64_t fences;
    uint64_t flushes;
};

template <typename Op>
McCost
memcached_cost(bool lazy_lock_records, Op&& op)
{
    apps::MemcachedMini::register_programs();
    nvm::PersistentHeap heap({.size = 16u << 20});
    nvm::RealDomain dom;
    IdoRuntime runtime(heap, dom,
                       rt::RuntimeConfig{
                           .check_contracts = true,
                           .lazy_lock_records = lazy_lock_records});
    auto th = runtime.make_thread();
    apps::MemcachedMini cache(heap,
                              apps::MemcachedMini::create(*th, 1, 1));
    cache.set(*th, 1, 1, 10);
    tls_persist_counters().clear();
    op(cache, *th);
    const McCost c{tls_persist_counters().fences,
                   tls_persist_counters().flushes};
    tls_persist_counters().clear();
    return c;
}

TEST(IdoLazyLockRecords, GetCostsNoPersist)
{
    // lock, read_head, walk, unlock: no region may store, so the log
    // never activates and the shard lock is taken transiently.
    const McCost c = memcached_cost(true, [](auto& cache, auto& th) {
        uint64_t v = 0;
        EXPECT_TRUE(cache.get(th, 1, 1, &v));
        EXPECT_EQ(v, 10u);
    });
    EXPECT_EQ(c.fences, 0u);
    EXPECT_EQ(c.flushes, 0u);
}

TEST(IdoLazyLockRecords, DeleteMissCostsNoFence)
{
    const McCost c = memcached_cost(true, [](auto& cache, auto& th) {
        EXPECT_FALSE(cache.del(th, 2, 2));
    });
    EXPECT_EQ(c.fences, 0u);
}

TEST(IdoLazyLockRecords, SetHitCostsFourFences)
{
    // The acquire's record joins the activation's live-in fence, and
    // the update boundary retires the log ahead of the unlock region:
    // activation(2) + update boundary(2: heap line + inactive pc).  The
    // unlock and the FASE end pay nothing (6 before retirement).
    const McCost c = memcached_cost(true, [](auto& cache, auto& th) {
        cache.set(th, 1, 1, 11);
    });
    EXPECT_EQ(c.fences, 4u);
}

TEST(IdoLazyLockRecords, DeleteHitCostsFourFences)
{
    // activation(2) + unlink boundary(2: heap lines + inactive pc); the
    // deferred free pays no fence of its own.  6 before retirement:
    // the unlock's record and the FASE-end pc paid one each.
    const McCost c = memcached_cost(true, [](auto& cache, auto& th) {
        EXPECT_TRUE(cache.del(th, 1, 1));
    });
    EXPECT_EQ(c.fences, 4u);
}

TEST(IdoLazyLockRecords, EagerRecordsKeepThePerLockOpFences)
{
    // lazy_lock_records off is the paper's protocol: one fence per
    // lock operation, wherever it runs.
    const McCost get = memcached_cost(false, [](auto& cache, auto& th) {
        uint64_t v = 0;
        EXPECT_TRUE(cache.get(th, 1, 1, &v));
    });
    EXPECT_EQ(get.fences, 2u);
    const McCost set = memcached_cost(false, [](auto& cache, auto& th) {
        cache.set(th, 1, 1, 11);
    });
    EXPECT_EQ(set.fences, 7u);
    // ... and no early retirement: the unlock and FASE-end fences stay.
    const McCost del = memcached_cost(false, [](auto& cache, auto& th) {
        EXPECT_TRUE(cache.del(th, 1, 1));
    });
    EXPECT_EQ(del.fences, 7u);
}

TEST_F(IdoFixture, LazyRecordsLandAtActivation)
{
    // A lock taken in a store-free region leaves the persistent record
    // untouched until the first may_store region activates the log;
    // from then on it is recorded like an eagerly taken lock.
    static IdoThread* probe;
    static uint64_t holder;
    static uint64_t bitmap_before, bitmap_after, array0_after;
    auto lock_r = +[](rt::RuntimeThread& t, rt::RegionCtx&) -> uint32_t {
        t.fase_lock(holder);
        return 1;
    };
    auto peek_r = +[](rt::RuntimeThread&, rt::RegionCtx&) -> uint32_t {
        bitmap_before = probe->rec()->lock_bitmap;
        return 2;
    };
    auto store_r = +[](rt::RuntimeThread&, rt::RegionCtx&) -> uint32_t {
        bitmap_after = probe->rec()->lock_bitmap;
        array0_after = probe->rec()->lock_array[0];
        return 3;
    };
    auto unlock_r =
        +[](rt::RuntimeThread& t, rt::RegionCtx&) -> uint32_t {
            t.fase_unlock(holder);
            return rt::kRegionEnd;
        };
    rt::FaseProgram p;
    p.fase_id = 9006;
    p.name = "lazy_locks";
    p.regions = {{lock_r, "l", 0, 0, 0, 0, 0},
                 {peek_r, "peek", 0, 0, 0, 0, 0},
                 {store_r, "s", 0, 0, 0, 0, 1},
                 {unlock_r, "u", 0, 0, 0, 0, 0}};

    auto th = runtime.make_thread();
    probe = static_cast<IdoThread*>(th.get());
    holder = runtime.allocator().alloc(64, dom);
    tls_persist_counters().clear();
    rt::RegionCtx ctx;
    th->run_fase(p, ctx);
    EXPECT_EQ(bitmap_before, 0u);
    EXPECT_EQ(bitmap_after, 1u);
    EXPECT_EQ(array0_after, holder);
    // s stored nothing and only the store-free unlock follows, so its
    // boundary retires the log with the inactive pc's fence alone:
    // activation(2: records, then pc) + retirement(1).  The unlock
    // writes no record and the FASE end no pc (5 before retirement).
    EXPECT_EQ(tls_persist_counters().fences, 3u);
    tls_persist_counters().clear();
    EXPECT_EQ(probe->rec()->recovery_pc, kInactivePc);
    EXPECT_EQ(probe->lock_mirror(), 0u);

    // The next activation records exactly the held locks: the same
    // lock again, then none (the stale slot zeroed).
    bitmap_after = array0_after = 0;
    th->run_fase(p, ctx);
    EXPECT_EQ(bitmap_after, 1u);
    EXPECT_EQ(array0_after, holder);
    ActivationProbe::run(*th);
    EXPECT_EQ(ActivationProbe::bitmap, 0u);
    EXPECT_EQ(ActivationProbe::array0, 0u);
    tls_persist_counters().clear();
}

TEST(IdoEarlyRetirementDeathTest, StoringRegionAfterRetirementPanics)
{
    // Region 1 is the only region at or past index 1 and is store-free,
    // so the boundary 0 -> 1 retires the log; jumping back to the
    // storing region 0 is a metadata bug, caught before it stores.
    static int passes;
    auto store = +[](rt::RuntimeThread&, rt::RegionCtx&) -> uint32_t {
        return 1;
    };
    auto back = +[](rt::RuntimeThread&, rt::RegionCtx&) -> uint32_t {
        return passes++ == 0 ? 0 : rt::kRegionEnd;
    };
    rt::FaseProgram p;
    p.fase_id = 9008;
    p.name = "loop_back";
    p.regions = {{store, "store", 0, 0, 0, 0, 1},
                 {back, "back", 0, 0, 0, 0, 0}};
    EXPECT_DEATH(
        {
            nvm::PersistentHeap heap({.size = 16u << 20});
            nvm::RealDomain dom;
            IdoRuntime runtime(heap, dom, rt::RuntimeConfig{});
            auto th = runtime.make_thread();
            passes = 0;
            rt::RegionCtx ctx;
            th->run_fase(p, ctx);
        },
        "may store after a store-free region retired the log");
}

TEST_F(IdoFixture, TraitsMatchTableTwo)
{
    const rt::RuntimeTraits t = runtime.traits();
    EXPECT_STREQ(t.semantics, "Lock-inferred FASE");
    EXPECT_STREQ(t.recovery, "Resumption");
    EXPECT_STREQ(t.granularity, "Idempotent Region");
    EXPECT_FALSE(t.dependence_tracking);
    EXPECT_TRUE(t.transient_caches);
}

} // namespace
} // namespace ido
