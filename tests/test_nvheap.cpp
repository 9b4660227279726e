/**
 * @file
 * NvHeap v2 tests: facade semantics (per-thread caches, sharded free
 * lists, alloc_linked), free_block forensics, a deterministic
 * crash-at-every-fuse-point sweep over alloc/free under all three
 * ShadowDomain crash policies, the attach pass (serial and parallel
 * walk) against a slow oracle, and a multi-thread alloc/free stress
 * run.  The sweep is the acceptance gate for the two-phase free
 * protocol: after any crash the heap must check consistent, nothing
 * may be handed out twice, and leak reclamation must converge.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "nvm/nv_heap.h"
#include "nvm/persist_domain.h"
#include "nvm/shadow_domain.h"
#include "stats/metrics.h"

namespace ido::nvm {
namespace {

struct NvHeapFixture : public ::testing::Test
{
    NvHeapFixture()
        : heap({.size = 4u << 20}), dom(), h(heap, dom)
    {
    }

    PersistentHeap heap;
    RealDomain dom;
    NvHeap h;
};

TEST_F(NvHeapFixture, BasicAllocNonZeroAligned)
{
    const uint64_t a = h.alloc(24, dom);
    const uint64_t b = h.alloc(24, dom);
    ASSERT_NE(a, 0u);
    ASSERT_NE(b, 0u);
    EXPECT_NE(a, b);
    EXPECT_EQ(a % 16, 0u);
    EXPECT_EQ(b % 16, 0u);
}

TEST_F(NvHeapFixture, FreeThenReuseHitsThreadCache)
{
    const uint64_t a = h.alloc(32, dom);
    h.free_block(a, dom);
    // The block parks in this thread's transient cache (phase 1) and
    // the next same-class alloc must take it straight back.
    const uint64_t b = h.alloc(32, dom);
    EXPECT_EQ(a, b);
}

TEST_F(NvHeapFixture, AlignedAllocIsLineAligned)
{
    for (size_t sz : {24u, 100u, 2000u}) {
        const uint64_t off = h.alloc_aligned(sz, dom);
        ASSERT_NE(off, 0u);
        EXPECT_EQ(off % 64, 0u) << "size " << sz;
        std::memset(heap.resolve<void>(off), 0x5a, sz);
    }
    EXPECT_TRUE(h.check_consistency());
}

TEST_F(NvHeapFixture, AlignedBlocksSurviveFreeAndReuse)
{
    const uint64_t a = h.alloc_aligned(128, dom);
    h.free_block(a, dom);
    const uint64_t b = h.alloc(8, dom);
    ASSERT_NE(b, 0u);
    EXPECT_TRUE(h.check_consistency());
}

TEST_F(NvHeapFixture, LiveCountTracksAllocFree)
{
    const uint64_t base = h.live_blocks();
    const uint64_t a = h.alloc(40, dom);
    const uint64_t b = h.alloc(40, dom);
    EXPECT_EQ(h.live_blocks(), base + 2);
    h.free_block(a, dom);
    EXPECT_EQ(h.live_blocks(), base + 1);
    h.free_block(b, dom);
    EXPECT_EQ(h.live_blocks(), base);
}

TEST_F(NvHeapFixture, OversizeRoundTrip)
{
    const uint64_t a = h.alloc(100000, dom);
    ASSERT_NE(a, 0u);
    auto* p = heap.resolve<uint8_t>(a);
    p[0] = 1;
    p[99999] = 2;
    EXPECT_EQ(p[0], 1);
    EXPECT_EQ(p[99999], 2);
    h.free_block(a, dom);
    EXPECT_TRUE(h.check_consistency());
}

TEST_F(NvHeapFixture, SpillAndShardRefillRoundTrip)
{
    // Overflow one class cache so half of it spills to the sharded
    // global lists, then drain it all back out.
    std::vector<uint64_t> offs;
    for (size_t i = 0; i < NvHeap::kCacheCap + 8; ++i)
        offs.push_back(h.alloc(48, dom));
    for (uint64_t off : offs)
        h.free_block(off, dom);
    EXPECT_TRUE(h.check_consistency());
    std::set<uint64_t> seen;
    for (size_t i = 0; i < offs.size(); ++i) {
        const uint64_t off = h.alloc(48, dom);
        ASSERT_NE(off, 0u);
        EXPECT_TRUE(seen.insert(off).second)
            << "offset 0x" << std::hex << off << " handed out twice";
    }
    EXPECT_TRUE(h.check_consistency());
}

TEST_F(NvHeapFixture, ExhaustionReturnsZero)
{
    uint64_t last = 1;
    int count = 0;
    while ((last = h.alloc(1u << 16, dom)) != 0 && count < 10000)
        ++count;
    EXPECT_EQ(last, 0u);
    EXPECT_GT(count, 10);
    EXPECT_TRUE(h.check_consistency());
}

TEST_F(NvHeapFixture, ConsistencyAfterChurn)
{
    Rng rng(3);
    std::vector<uint64_t> live;
    for (int i = 0; i < 2000; ++i) {
        if (live.empty() || rng.percent(60)) {
            const uint64_t off = h.alloc(8 + rng.next_below(200), dom);
            if (off != 0)
                live.push_back(off);
        } else {
            const size_t idx = rng.next_below(live.size());
            h.free_block(live[idx], dom);
            live[idx] = live.back();
            live.pop_back();
        }
    }
    EXPECT_TRUE(h.check_consistency());
}

TEST_F(NvHeapFixture, AllocLinkedBuildsList)
{
    struct Rec
    {
        uint64_t next;
        uint64_t tag;
    };
    std::vector<uint64_t> offs;
    for (uint64_t i = 1; i <= 5; ++i) {
        const uint64_t off = h.alloc_linked(
            RootSlot::kUser0, TypeId::kTestBlock, sizeof(Rec), dom,
            [&](void* rec, uint64_t prev_head) {
                Rec init{prev_head, i};
                dom.store(rec, &init, sizeof(init));
            });
        ASSERT_NE(off, 0u);
        offs.push_back(off);
    }
    // Head is the last record; walk recovers insertion order reversed.
    uint64_t off = heap.root(RootSlot::kUser0);
    for (uint64_t i = 5; i >= 1; --i) {
        ASSERT_NE(off, 0u);
        const auto* r = heap.resolve<Rec>(off);
        EXPECT_EQ(r->tag, i);
        EXPECT_EQ(off, offs[i - 1]);
        off = r->next;
    }
    EXPECT_EQ(off, 0u);
}

TEST_F(NvHeapFixture, ReattachFindsExistingState)
{
    const uint64_t a = h.alloc(64, dom);
    ASSERT_NE(a, 0u);
    const uint64_t before = h.epoch();
    NvHeap again(heap, dom);
    // epoch() reads the shared persistent word, so both handles now
    // see the attach bump.
    EXPECT_EQ(again.epoch(), before + 1);
    const uint64_t b = again.alloc(64, dom);
    EXPECT_NE(b, 0u);
    EXPECT_NE(a, b);
    EXPECT_TRUE(again.check_consistency());
}

using NvHeapDeath = NvHeapFixture;

TEST_F(NvHeapDeath, DoubleFreePanicsWithForensics)
{
    const uint64_t a = h.alloc(32, dom);
    h.free_block(a, dom);
    EXPECT_DEATH(h.free_block(a, dom), "double free");
}

TEST_F(NvHeapDeath, WildOffsetPanics)
{
    const uint64_t a = h.alloc(32, dom);
    (void)a;
    EXPECT_DEATH(h.free_block(a + 8, dom), "free of invalid offset");
}

TEST_F(NvHeapDeath, InteriorGarbagePanics)
{
    const uint64_t a = h.alloc(256, dom);
    // A 16-aligned offset into the payload: past the bounds check, the
    // header validation must reject it with the forensic dump.
    EXPECT_DEATH(h.free_block(a + 64, dom),
                 "wild or corrupted pointer");
}

// --------------------------------------------------------------------------
// Deterministic crash sweep
// --------------------------------------------------------------------------

struct HookCrash
{
};

/**
 * The scripted workload for the sweep.  Deliberately touches every
 * protocol arm: chunk carves, refills (2-KiB blocks drain a 16-KiB
 * chunk in seven allocs), cache hits, spills (overflowing one class
 * cache), shard pops, oversize carves, alloc_linked publishes, and
 * aligned blocks.  `tracked` collects payload extents of every block
 * the script holds live (never freed).  Hot-path marks are
 * fence-coalesced, so a tracked block is only durably kBlockLive once
 * its owner fences -- keep() fences exactly like a real caller
 * durably publishing the offset, which is what licenses the
 * no-overlap assertion after recovery.
 */
void
run_script(NvHeap& h, PersistDomain& dom,
           std::vector<std::pair<uint64_t, uint64_t>>* tracked)
{
    std::vector<uint64_t> scratch;
    auto keep = [&](uint64_t off, uint64_t sz) {
        ASSERT_NE(off, 0u);
        dom.fence();
        if (tracked)
            tracked->emplace_back(off, sz);
    };
    // Chunk carving + one refill.
    for (int i = 0; i < 9; ++i)
        keep(h.alloc(2048, dom), 2048);
    // Small blocks: carve, free (phase 1), re-alloc (cache hit).
    for (int i = 0; i < 8; ++i)
        scratch.push_back(h.alloc(32, dom));
    for (uint64_t off : scratch)
        h.free_block(off, dom);
    scratch.clear();
    for (int i = 0; i < 4; ++i)
        keep(h.alloc(32, dom), 32);
    // Overflow one class cache to force a spill to the shard lists.
    for (size_t i = 0; i < NvHeap::kCacheCap + 4; ++i)
        scratch.push_back(h.alloc(64, dom));
    for (uint64_t off : scratch)
        h.free_block(off, dom);
    scratch.clear();
    // Oversize, aligned, and linked allocations.
    keep(h.alloc(6000, dom), 6000);
    // Oversize free: the bump-only arm (never relinked, settles to a
    // FREE tombstone) must survive mid-free crashes like every other.
    {
        const uint64_t big = h.alloc(5000, dom);
        ASSERT_NE(big, 0u);
        h.free_block(big, dom);
    }
    keep(h.alloc_aligned(200, dom), 200);
    const uint64_t rec = h.alloc_linked(
        RootSlot::kUser1, TypeId::kTestBlock, 32, dom,
        [&](void* p, uint64_t prev_head) {
            uint64_t words[4] = {prev_head, 0xbeef, 0, 0};
            dom.store(p, words, sizeof(words));
        });
    keep(rec, 32);
}

/**
 * Crash at fuse point N for every N until the script completes, under
 * each crash policy.  After every crash: reattach, reclaim leaks, and
 * verify (a) the surviving metadata checks consistent, (b) reclamation
 * converges (a second pass finds nothing), and (c) nothing the crashed
 * run held live is ever handed out again or overlapped by a new block.
 */
TEST(NvHeapCrashSweep, EveryFusePointEveryPolicy)
{
    for (const CrashPolicy policy :
         {CrashPolicy::kDropAll, CrashPolicy::kPersistAll,
          CrashPolicy::kRandom}) {
        int completed_at = -1;
        for (int fuse = 1; fuse < 100000; ++fuse) {
            PersistentHeap heap({.size = 4u << 20});
            ShadowDomain shadow(heap.base(), heap.size(),
                                static_cast<uint64_t>(fuse) * 31 + 7);
            std::vector<std::pair<uint64_t, uint64_t>> held;
            bool crashed = false;
            {
                NvHeap h(heap, shadow);
                heap.mark_running(shadow);
                int steps = 0;
                h.set_crash_hook([&] {
                    if (++steps == fuse)
                        throw HookCrash{};
                });
                try {
                    run_script(h, shadow, &held);
                } catch (const HookCrash&) {
                    crashed = true;
                }
                if (::testing::Test::HasFatalFailure())
                    return;
                h.set_crash_hook(nullptr);
                // The crashed instance is abandoned here; its
                // destructor must not touch the heap.
            }
            if (!crashed) {
                completed_at = fuse;
                break;
            }
            shadow.crash(policy);
            heap.simulate_fresh_open();
            ASSERT_TRUE(heap.recovered_from_crash());

            RealDomain dom;
            NvHeap rec(heap, dom); // ctor runs recover_leaks
            ASSERT_TRUE(rec.check_consistency())
                << "policy " << static_cast<int>(policy) << " fuse "
                << fuse;
            EXPECT_EQ(rec.recover_leaks(dom), 0u)
                << "reclamation did not converge (fuse " << fuse
                << ")";
            // No double allocation: blocks the crashed run held live
            // were durably kBlockLive when alloc returned, so no new
            // allocation may overlap them.
            std::sort(held.begin(), held.end());
            std::set<uint64_t> fresh;
            for (int i = 0; i < 120; ++i) {
                const uint64_t off = rec.alloc(48, dom);
                ASSERT_NE(off, 0u);
                ASSERT_TRUE(fresh.insert(off).second)
                    << "offset handed out twice after recovery";
                for (const auto& [ho, hs] : held) {
                    ASSERT_FALSE(off < ho + hs && ho < off + 48)
                        << "post-crash alloc 0x" << std::hex << off
                        << " overlaps surviving block 0x" << ho
                        << " (policy " << std::dec
                        << static_cast<int>(policy) << ", fuse "
                        << fuse << ")";
                }
            }
            ASSERT_TRUE(rec.check_consistency());
        }
        // The loop must terminate by completing the script, and the
        // script must actually contain fuse points.
        EXPECT_GT(completed_at, 20)
            << "script has suspiciously few protocol steps";
    }
}

/**
 * Double-dirty attach: the leak-reclamation pass itself dies mid-relink
 * and the *next* attach must converge on whatever it left behind --
 * half-relinked FREE blocks, unpublished heads, and untouched stale
 * FREEING strays -- under every crash policy.
 */
TEST(NvHeapCrashSweep, DoubleDirtyAttachConverges)
{
    constexpr int kStrays = 20;
    for (const CrashPolicy policy :
         {CrashPolicy::kDropAll, CrashPolicy::kPersistAll,
          CrashPolicy::kRandom}) {
        int completed_at = -1;
        for (int fuse = 1; fuse < 1000; ++fuse) {
            PersistentHeap heap({.size = 4u << 20});
            // Run 1: park kStrays frees in the transient cache and die
            // without spilling.  The FREEING marks are durable; the
            // cache is not, so the blocks become epoch-stale strays.
            {
                RealDomain dom;
                NvHeap h1(heap, dom);
                std::vector<uint64_t> offs;
                for (int i = 0; i < kStrays; ++i) {
                    offs.push_back(h1.alloc(64, dom));
                    ASSERT_NE(offs.back(), 0u);
                }
                for (uint64_t off : offs)
                    h1.free_block(off, dom);
            }
            // Run 2: re-attach (the epoch bump makes the strays
            // reclaimable, and the attach pass relinks them) and crash
            // partway through that reclamation or the explicit one
            // after it.  The hook goes in through the constructor so
            // the attach pass's fuse points are swept too.
            bool crashed = false;
            {
                ShadowDomain shadow(heap.base(), heap.size(),
                                    static_cast<uint64_t>(fuse) * 53
                                        + 3);
                int steps = 0;
                try {
                    NvHeap h2(heap, shadow, [&] {
                        if (++steps == fuse)
                            throw HookCrash{};
                    });
                    h2.recover_leaks(shadow);
                } catch (const HookCrash&) {
                    crashed = true;
                }
                if (crashed)
                    shadow.crash(policy);
            }
            if (!crashed) {
                completed_at = fuse;
                break;
            }
            heap.simulate_fresh_open();
            // Run 3: a third epoch; reclamation must now converge.
            RealDomain dom;
            NvHeap h3(heap, dom);
            h3.recover_leaks(dom);
            EXPECT_EQ(h3.recover_leaks(dom), 0u)
                << "reclamation did not converge (policy "
                << static_cast<int>(policy) << " fuse " << fuse << ")";
            EXPECT_TRUE(h3.check_consistency())
                << "policy " << static_cast<int>(policy) << " fuse "
                << fuse;
            EXPECT_EQ(h3.live_blocks(), 0u)
                << "a freed block came back LIVE (policy "
                << static_cast<int>(policy) << " fuse " << fuse << ")";
            if (::testing::Test::HasFailure())
                return;
        }
        // Two hooks fire per relinked list, so the interrupted pass
        // must have swept every list before completing.
        EXPECT_GT(completed_at, 2)
            << "reclamation exposed no fuse points";
    }
}

// --------------------------------------------------------------------------
// The attach pass against an oracle
// --------------------------------------------------------------------------

constexpr uint64_t kClassSizes[NvHeap::kNumClasses] = {
    16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 1024, 2048, 4096,
};

/** Size class of a block, or kNumClasses for an oversize block. */
size_t
class_of(uint64_t size)
{
    for (size_t c = 0; c < NvHeap::kNumClasses; ++c)
        if (kClassSizes[c] == size)
            return c;
    return NvHeap::kNumClasses;
}

using FreeLists =
    std::vector<std::vector<uint64_t>>; ///< [shard * kNumClasses + cls]

FreeLists
free_lists(const NvHeap& h)
{
    FreeLists out;
    for (size_t s = 0; s < NvHeap::kNumShards; ++s)
        for (size_t c = 0; c < NvHeap::kNumClasses; ++c)
            out.push_back(h.free_list(s, c));
    return out;
}

/**
 * What a crash attach must do to an image, worked out the slow way from
 * the image before the attach: the block list from for_each_block, the
 * free lists chased one by one, strays found by a linear scan and
 * pushed one at a time, in address order, onto shard j % kNumShards.
 */
struct AttachOracle
{
    explicit AttachOracle(const NvHeap& crashed) : lists(free_lists(crashed))
    {
        std::set<uint64_t> listed;
        for (const auto& l : lists) {
            listed_blocks += l.size();
            listed.insert(l.begin(), l.end());
        }
        std::vector<size_t> classes;
        crashed.for_each_block([&](uint64_t raw, uint64_t size,
                                   uint64_t meta) {
            ++walked_blocks;
            const uint64_t st = meta & 0xffff;
            if (class_of(size) == NvHeap::kNumClasses)
                return;
            // Every FREEING block predates the attach's epoch bump.
            if (st == NvHeap::kBlockFreeing
                || (st == NvHeap::kBlockFree && listed.count(raw) == 0)) {
                strays.push_back(raw);
                classes.push_back(class_of(size));
            }
        });
        for (size_t j = 0; j < strays.size(); ++j) {
            auto& l = lists[(j % NvHeap::kNumShards) * NvHeap::kNumClasses
                            + classes[j]];
            l.insert(l.begin(), strays[j]);
        }
    }

    FreeLists lists; ///< after the attach
    std::vector<uint64_t> strays;
    uint64_t listed_blocks = 0;
    uint64_t walked_blocks = 0;
};

/**
 * A crashed image of about `used` arena bytes: every size class plus
 * some oversize blocks, a third of them freed (spilled to the shard
 * lists, or parked FREEING in the cache the crash kills), and every
 * 50th survivor flipped to FREE behind the lists' back -- the state a
 * lost spill-head publish leaves.  Returns the crashed instance, still
 * attached so the oracle can read the image through it.
 */
std::unique_ptr<NvHeap>
crashed_image(PersistentHeap& heap, RealDomain& dom, uint64_t used)
{
    auto h = std::make_unique<NvHeap>(heap, dom);
    heap.mark_running(dom);
    Rng rng(11);
    std::vector<uint64_t> all;
    while (heap.size() - h->arena_remaining() < used) {
        const size_t size = rng.percent(1) ? 5000 + rng.next_below(3000)
                                           : 1 + rng.next_below(4096);
        all.push_back(h->alloc(size, dom));
        EXPECT_NE(all.back(), 0u);
    }
    std::vector<uint64_t> live;
    for (const uint64_t off : all) {
        if (rng.percent(33))
            h->free_block(off, dom);
        else
            live.push_back(off);
    }
    for (size_t i = 0; i < live.size(); i += 50) {
        auto* meta = heap.resolve<uint64_t>(live[i] - 8);
        if (class_of(meta[-1]) == NvHeap::kNumClasses)
            continue;
        *meta = (*meta & ~uint64_t{0xffff}) | NvHeap::kBlockFree;
    }
    return h;
}

/** Run the crash attach of crashed_image(used) against the oracle;
 *  returns the chunk count the attach walked. */
size_t
check_crash_attach(size_t heap_mib, uint64_t used)
{
    PersistentHeap heap({.size = heap_mib << 20});
    RealDomain dom;
    std::unique_ptr<NvHeap> crashed = crashed_image(heap, dom, used);
    const AttachOracle want(*crashed);
    crashed.reset(); // dies without spilling its caches
    EXPECT_GT(want.listed_blocks, 100u);
    EXPECT_GT(want.strays.size(), 100u);
    heap.simulate_fresh_open();
    EXPECT_TRUE(heap.recovered_from_crash());

    NvHeap rec(heap, dom);
    const NvHeap::AttachReclaim at = rec.take_attach_reclaim();
    EXPECT_TRUE(at.ran);
    EXPECT_EQ(at.blocks, want.strays.size());
    EXPECT_EQ(at.listed_blocks, want.listed_blocks);
    EXPECT_EQ(at.walked_blocks, want.walked_blocks);
    if (!at.index.has_value()) {
        ADD_FAILURE() << "a crash attach kept no index";
        return 0;
    }
    // The index records every block as the pass left it.
    std::vector<std::array<uint64_t, 3>> blocks, indexed;
    rec.for_each_block([&](uint64_t raw, uint64_t size, uint64_t meta) {
        blocks.push_back({raw, size, meta});
    });
    for (const IndexedBlock& b : at.index->blocks)
        indexed.push_back({b.raw, b.size, b.meta});
    EXPECT_EQ(indexed, blocks);
    EXPECT_EQ(blocks.size(), want.walked_blocks);
    // Same strays, relinked in the same order: every list byte-equal.
    EXPECT_EQ(free_lists(rec), want.lists);
    for (const uint64_t s : want.strays)
        EXPECT_EQ(*heap.resolve<uint64_t>(s - 8) & 0xffff,
                  NvHeap::kBlockFree);
    EXPECT_TRUE(rec.check_consistency());
    EXPECT_EQ(rec.recover_leaks(dom), 0u);

    // The per-class gauges the pass seeded match a recount.
    uint64_t all[NvHeap::kNumClasses] = {};
    uint64_t freed[NvHeap::kNumClasses] = {};
    rec.for_each_block([&](uint64_t, uint64_t size, uint64_t meta) {
        const size_t c = class_of(size);
        if (c == NvHeap::kNumClasses)
            return;
        ++all[c];
        freed[c] += (meta & 0xffff) != NvHeap::kBlockLive;
    });
    const auto gauges = MetricsRegistry::instance().snapshot().gauges;
    for (size_t c = 0; c < NvHeap::kNumClasses; ++c) {
        const std::string base =
            "nvheap.class." + std::to_string(kClassSizes[c]);
        EXPECT_EQ(gauges.at(base + ".live"), all[c] - freed[c]) << base;
        EXPECT_EQ(gauges.at(base + ".free"), freed[c]) << base;
    }
    return at.index->chunks.size();
}

TEST(NvHeapAttach, CrashAttachMatchesOracleSerial)
{
    EXPECT_LT(check_crash_attach(4, 3u << 20), kParallelChunks);
}

TEST(NvHeapAttach, CrashAttachMatchesOracleParallel)
{
    // More carved chunks than kParallelChunks: the chase and the walk
    // both run on every core.  Several times the threshold, so the walk
    // lasts long enough for every worker to claim segments (and collect
    // strays) before the calling thread has walked them all.
    const uint64_t used = 6 * kParallelChunks * NvHeap::kChunkBytes;
    EXPECT_GT(check_crash_attach(128, used), kParallelChunks);
}

TEST(NvHeapAttach, IndexIsDroppedOnceAThreadAllocates)
{
    PersistentHeap heap({.size = 4u << 20});
    RealDomain dom;
    crashed_image(heap, dom, 1u << 20).reset();
    heap.simulate_fresh_open();
    NvHeap rec(heap, dom);
    ASSERT_NE(rec.alloc(64, dom), 0u);
    const NvHeap::AttachReclaim at = rec.take_attach_reclaim();
    EXPECT_TRUE(at.ran);
    EXPECT_FALSE(at.index.has_value());
}

/**
 * Frees parked in a transient cache are FREEING under the running
 * epoch, and a clean shutdown does not spill the cache.  Each clean
 * attach must relink what the run before it parked; otherwise every
 * cycle strands another cache's worth of blocks that nothing reuses.
 */
TEST(NvHeapAttach, CleanShutdownStrandsNoCachedFrees)
{
    PersistentHeap heap({.size = 4u << 20});
    RealDomain dom;
    constexpr int kCycles = 4;
    constexpr int kFrees = 40; // below kCacheCap: nothing spills
    for (int cycle = 0; cycle < kCycles; ++cycle) {
        NvHeap h(heap, dom);
        heap.mark_running(dom);
        std::vector<uint64_t> offs;
        for (int i = 0; i < kFrees; ++i)
            offs.push_back(h.alloc(64, dom));
        for (const uint64_t off : offs)
            h.free_block(off, dom);
        heap.mark_clean(dom);
    }
    heap.simulate_fresh_open();
    ASSERT_FALSE(heap.recovered_from_crash());
    NvHeap h(heap, dom);
    uint64_t freeing = 0;
    h.for_each_block([&](uint64_t, uint64_t, uint64_t meta) {
        freeing += (meta & 0xffff) == NvHeap::kBlockFreeing;
    });
    EXPECT_EQ(freeing, 0u);
    // Every block was freed, and every one is back on a list.
    uint64_t blocks = 0;
    h.for_each_block([&](uint64_t, uint64_t, uint64_t) { ++blocks; });
    uint64_t listed = 0;
    for (const auto& l : free_lists(h))
        listed += l.size();
    EXPECT_EQ(h.live_blocks(), 0u);
    EXPECT_EQ(listed, blocks);
    EXPECT_EQ(h.recover_leaks(dom), 0u);
    EXPECT_TRUE(h.check_consistency());
}

// --------------------------------------------------------------------------
// Concurrency
// --------------------------------------------------------------------------

TEST(NvHeapStress, EightThreadAllocFreeChurn)
{
    PersistentHeap heap({.size = 64u << 20});
    RealDomain dom;
    NvHeap h(heap, dom);
    constexpr int kThreads = 8;
    constexpr int kOpsPerThread = 4000;
    std::atomic<bool> failed{false};
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&, t] {
            Rng rng(static_cast<uint64_t>(t) * 1009 + 17);
            std::vector<uint64_t> live;
            for (int i = 0; i < kOpsPerThread; ++i) {
                if (live.empty() || rng.percent(55)) {
                    const size_t sz = 8 + rng.next_below(300);
                    const uint64_t off = h.alloc(sz, dom);
                    if (off == 0) {
                        failed.store(true);
                        return;
                    }
                    // Stamp the payload; torn or shared blocks would
                    // trip the consistency walk or the stamps below.
                    auto* p = heap.resolve<uint64_t>(off);
                    *p = (uint64_t{static_cast<uint64_t>(t)} << 32)
                         | static_cast<uint32_t>(i);
                    live.push_back(off);
                } else {
                    const size_t idx = rng.next_below(live.size());
                    h.free_block(live[idx], dom);
                    live[idx] = live.back();
                    live.pop_back();
                }
            }
            for (uint64_t off : live)
                h.free_block(off, dom);
        });
    }
    for (auto& t : ts)
        t.join();
    EXPECT_FALSE(failed.load());
    EXPECT_TRUE(h.check_consistency());
    EXPECT_EQ(h.live_blocks(), 0u);
}

TEST(NvHeapStress, CrossThreadFreeIsSafe)
{
    // Producer allocates, consumer frees: blocks migrate between the
    // two threads' caches through the sharded lists.
    PersistentHeap heap({.size = 16u << 20});
    RealDomain dom;
    NvHeap h(heap, dom);
    constexpr int kRounds = 2000;
    std::vector<uint64_t> handoff(kRounds, 0);
    std::atomic<int> ready{0};
    std::thread producer([&] {
        for (int i = 0; i < kRounds; ++i) {
            handoff[i] = h.alloc(96, dom);
            ASSERT_NE(handoff[i], 0u);
            ready.store(i + 1, std::memory_order_release);
        }
    });
    std::thread consumer([&] {
        for (int i = 0; i < kRounds; ++i) {
            while (ready.load(std::memory_order_acquire) <= i)
                std::this_thread::yield();
            h.free_block(handoff[i], dom);
        }
    });
    producer.join();
    consumer.join();
    EXPECT_TRUE(h.check_consistency());
    EXPECT_EQ(h.live_blocks(), 0u);
}

// --------------------------------------------------------------------------
// Properties inherited from the retired v1 allocator suite
// --------------------------------------------------------------------------

TEST_F(NvHeapFixture, FreeListPerClass)
{
    // Freed blocks return to their own size class, not a shared pool:
    // re-allocating each size must reuse the matching block.
    const uint64_t small = h.alloc(16, dom);
    const uint64_t big = h.alloc(512, dom);
    ASSERT_NE(small, 0u);
    ASSERT_NE(big, 0u);
    h.free_block(small, dom);
    h.free_block(big, dom);
    EXPECT_EQ(h.alloc(512, dom), big);
    EXPECT_EQ(h.alloc(16, dom), small);
}

TEST_F(NvHeapFixture, NoOverlappingPayloads)
{
    Rng rng(5);
    std::vector<std::pair<uint64_t, size_t>> blocks;
    for (int i = 0; i < 500; ++i) {
        const size_t sz = 8 + rng.next_below(100);
        const uint64_t off = h.alloc(sz, dom);
        ASSERT_NE(off, 0u);
        blocks.emplace_back(off, sz);
    }
    std::sort(blocks.begin(), blocks.end());
    for (size_t i = 1; i < blocks.size(); ++i) {
        EXPECT_GE(blocks[i].first,
                  blocks[i - 1].first + blocks[i - 1].second)
            << "blocks " << i - 1 << " and " << i << " overlap";
    }
}

/**
 * Crash-safety property from the v1 suite, now over NvHeap: random
 * alloc/free traffic through the shadow domain, crash at an arbitrary
 * point with random line loss, and the surviving metadata is never
 * corrupt (leaks allowed and reclaimed, overlap/corruption not).
 * Complements the scripted EveryFusePointEveryPolicy sweep with
 * unscripted interleavings.
 */
TEST(NvHeapCrashRandom, MetadataSurvivesRandomCrashes)
{
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        PersistentHeap heap({.size = 4u << 20});
        ShadowDomain shadow(heap.base(), heap.size(), seed);
        Rng rng(seed);
        {
            NvHeap alloc(heap, shadow);
            heap.mark_running(shadow);
            std::vector<uint64_t> live;
            const int crash_after = 20 + rng.next_below(200);
            for (int i = 0; i < crash_after; ++i) {
                if (live.empty() || rng.percent(70)) {
                    const uint64_t off =
                        alloc.alloc(8 + rng.next_below(100), shadow);
                    if (off)
                        live.push_back(off);
                } else {
                    const size_t idx = rng.next_below(live.size());
                    alloc.free_block(live[idx], shadow);
                    live[idx] = live.back();
                    live.pop_back();
                }
            }
            // The crashed instance is abandoned without cleanup.
        }
        shadow.crash(CrashPolicy::kRandom);
        heap.simulate_fresh_open();
        ASSERT_TRUE(heap.recovered_from_crash());

        RealDomain dom;
        NvHeap recovered(heap, dom); // ctor reclaims leaks
        EXPECT_TRUE(recovered.check_consistency()) << "seed " << seed;
        EXPECT_EQ(recovered.recover_leaks(dom), 0u) << "seed " << seed;
        for (int i = 0; i < 50; ++i)
            EXPECT_NE(recovered.alloc(48, dom), 0u);
        EXPECT_TRUE(recovered.check_consistency()) << "seed " << seed;
    }
}

} // namespace
} // namespace ido::nvm
