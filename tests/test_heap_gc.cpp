/**
 * @file
 * HeapGc tests: reachability audit over a typed corpus, leak detection
 * and repair through the recover_leaks relink path, dangling-link and
 * opaque-veto reporting, compaction correctness (data intact through a
 * full relocate-and-retire round, retired chunks actually reused), and
 * the crash acceptance gate -- a deterministic crash-at-every-fuse-point
 * sweep over compact() under all three ShadowDomain policies, with the
 * move journal resolved by the next GC and the corpus byte-compared
 * afterwards.  The granule lookup and the (parallel) level-synchronous
 * mark are checked against a brute-force oracle: the block list from
 * NvHeap::for_each_block, searched linearly -- including bad links
 * planted at the batched resolver's batch boundaries.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "nvm/heap_gc.h"
#include "nvm/nv_heap.h"
#include "nvm/persist_domain.h"
#include "nvm/root_registry.h"
#include "nvm/shadow_domain.h"

namespace ido::nvm {
namespace {

struct HookCrash
{
};

/** The traced corpus node: one link field + identity payload. */
struct Node
{
    uint64_t next;
    uint64_t tag;
    uint64_t stamp;
    uint64_t pad;
};

uint64_t
stamp_for(uint64_t tag)
{
    return tag * 0x9e3779b97f4a7c15ull + 1;
}

void
register_node_type()
{
    TypeDescriptor d;
    d.name = "gc.test_node";
    d.payload_size = sizeof(Node);
    d.link_offsets = {offsetof(Node, next)};
    TypeRegistry::instance().register_type(TypeId::kTestBlock, d);
}

/** Push one node onto the kUser0 chain (alloc_linked publish). */
uint64_t
push_node(NvHeap& h, PersistDomain& dom, uint64_t tag)
{
    return h.alloc_linked(
        RootSlot::kUser0, TypeId::kTestBlock, sizeof(Node), dom,
        [&](void* p, uint64_t prev_head) {
            Node n{prev_head, tag, stamp_for(tag), 0};
            dom.store(p, &n, sizeof(n));
        });
}

/**
 * Durably unlink and free every chain node whose tag fails keep();
 * the canonical sparsifier that leaves the heap honest (no link ever
 * points at a freed block) so audits stay clean.
 */
template <typename KeepFn>
void
sparsify_chain(NvHeap& h, PersistentHeap& heap, PersistDomain& dom,
               KeepFn&& keep)
{
    // Drop from the head first (the root slot is the "prev link").
    uint64_t head = RootRegistry::get_ref(heap, RootSlot::kUser0);
    while (head != 0) {
        const Node* n = heap.resolve<Node>(head);
        if (keep(n->tag))
            break;
        const uint64_t next = n->next;
        RootRegistry::set_ref(heap, RootSlot::kUser0, next, dom);
        h.free_block(head, dom);
        head = next;
    }
    // Then interior nodes, rewriting the survivor's next field.
    uint64_t prev = head;
    while (prev != 0) {
        Node* pn = heap.resolve<Node>(prev);
        const uint64_t cur = pn->next;
        if (cur == 0)
            break;
        const Node* cn = heap.resolve<Node>(cur);
        if (keep(cn->tag)) {
            prev = cur;
            continue;
        }
        const uint64_t next = cn->next;
        dom.store_val(&pn->next, next);
        dom.flush(&pn->next, sizeof(uint64_t));
        dom.fence();
        h.free_block(cur, dom);
    }
}

/** Collect (tag, stamp) pairs walking the chain from kUser0. */
std::vector<std::pair<uint64_t, uint64_t>>
walk_chain(PersistentHeap& heap)
{
    std::vector<std::pair<uint64_t, uint64_t>> out;
    uint64_t off = RootRegistry::get_ref(heap, RootSlot::kUser0);
    size_t hops = 0;
    while (off != 0) {
        const Node* n = heap.resolve<Node>(off);
        out.emplace_back(n->tag, n->stamp);
        off = n->next;
        if (++hops > 100000)
            break; // cycle: let the caller's comparison fail loudly
    }
    return out;
}

struct HeapGcFixture : public ::testing::Test
{
    HeapGcFixture() : heap({.size = 8u << 20}), dom(), h(heap, dom)
    {
        register_node_type();
    }

    PersistentHeap heap;
    RealDomain dom;
    NvHeap h;
};

TEST_F(HeapGcFixture, AuditCleanOnTypedCorpus)
{
    for (uint64_t t = 0; t < 50; ++t)
        ASSERT_NE(push_node(h, dom, t), 0u);
    HeapGc gc(h, dom);
    const GcStats s = gc.audit();
    EXPECT_EQ(s.leaked_blocks, 0u) << s.to_json();
    EXPECT_EQ(s.dangling_links, 0u);
    EXPECT_EQ(s.opaque_live, 0u);
    EXPECT_EQ(s.pinned_blocks, 0u);
    EXPECT_GE(s.live_blocks, 50u);
    EXPECT_TRUE(h.check_consistency());
}

TEST_F(HeapGcFixture, RepairReclaimsUnreachableBlocks)
{
    for (uint64_t t = 0; t < 10; ++t)
        ASSERT_NE(push_node(h, dom, t), 0u);
    // Typed but never rooted: the definition of a leak.
    for (int i = 0; i < 6; ++i) {
        const uint64_t off =
            h.alloc(sizeof(Node), dom, TypeId::kTestBlock);
        ASSERT_NE(off, 0u);
        Node n{0, 0, 0, 0};
        dom.store(heap.resolve<void>(off), &n, sizeof(n));
    }
    HeapGc gc(h, dom);
    GcStats s = gc.audit();
    EXPECT_EQ(s.leaked_blocks, 6u) << s.to_json();

    s = gc.repair();
    EXPECT_FALSE(s.repair_refused);
    EXPECT_EQ(s.reclaimed_blocks, 6u);
    s = gc.audit();
    EXPECT_EQ(s.leaked_blocks, 0u) << s.to_json();
    EXPECT_TRUE(h.check_consistency());
    // The chain survived the reclaim untouched.
    EXPECT_EQ(walk_chain(heap).size(), 10u);
}

TEST_F(HeapGcFixture, DanglingLinkIsReported)
{
    for (uint64_t t = 0; t < 3; ++t)
        ASSERT_NE(push_node(h, dom, t), 0u);
    const uint64_t head = RootRegistry::get_ref(heap, RootSlot::kUser0);
    Node* n = heap.resolve<Node>(head);
    const uint64_t saved = n->next;
    // Point the head's link at unused arena: no block lives there.
    dom.store_val(&n->next, heap.size() - 256);
    dom.flush(&n->next, sizeof(uint64_t));
    dom.fence();

    HeapGc gc(h, dom);
    GcStats s = gc.audit();
    EXPECT_GE(s.dangling_links, 1u) << s.to_json();
    // The severed tail is now unreachable and must be called a leak.
    EXPECT_EQ(s.leaked_blocks, 2u);

    dom.store_val(&n->next, saved);
    dom.flush(&n->next, sizeof(uint64_t));
    dom.fence();
    s = gc.audit();
    EXPECT_EQ(s.dangling_links, 0u);
    EXPECT_EQ(s.leaked_blocks, 0u);
}

TEST_F(HeapGcFixture, ReachableOpaqueBlockVetoesRepair)
{
    for (uint64_t t = 0; t < 5; ++t)
        ASSERT_NE(push_node(h, dom, t), 0u);
    // A rooted untyped block: reachable, but its interior is a black
    // box that could reference anything -- including the leak below.
    const uint64_t opaque = h.alloc(64, dom);
    ASSERT_NE(opaque, 0u);
    std::memset(heap.resolve<void>(opaque), 0, 64);
    RootRegistry::set_ref(heap, RootSlot::kUser1, opaque, dom);
    const uint64_t leak = h.alloc(sizeof(Node), dom, TypeId::kTestBlock);
    ASSERT_NE(leak, 0u);
    Node z{0, 0, 0, 0};
    dom.store(heap.resolve<void>(leak), &z, sizeof(z));

    HeapGc gc(h, dom);
    GcStats s = gc.repair();
    EXPECT_TRUE(s.repair_refused) << s.to_json();
    EXPECT_EQ(s.reclaimed_blocks, 0u);

    // Unroot the opaque block; it joins the leak set and both reclaim.
    RootRegistry::set_ref(heap, RootSlot::kUser1, 0, dom);
    s = gc.repair();
    EXPECT_FALSE(s.repair_refused);
    EXPECT_EQ(s.reclaimed_blocks, 2u);
    EXPECT_EQ(gc.audit().leaked_blocks, 0u);
    EXPECT_TRUE(h.check_consistency());
}

TEST_F(HeapGcFixture, CompactionPreservesDataAndReusesChunks)
{
    constexpr uint64_t kNodes = 400;
    for (uint64_t t = 0; t < kNodes; ++t)
        ASSERT_NE(push_node(h, dom, t), 0u);
    sparsify_chain(h, heap, dom,
                   [](uint64_t tag) { return tag % 4 == 0; });

    HeapGc gc(h, dom);
    const GcStats s = gc.compact();
    EXPECT_FALSE(s.relocation_refused) << s.to_json();
    EXPECT_GT(s.chunks_retired, 0u);
    EXPECT_GT(s.relocated_blocks, 0u);

    // Content check: the chain reads back exactly the kept sequence
    // (push order reversed), stamps intact -- every copy was complete
    // and every link and the root were rewritten.
    const auto got = walk_chain(heap);
    ASSERT_EQ(got.size(), kNodes / 4);
    uint64_t expect_tag = kNodes - 4; // highest tag with tag % 4 == 0
    for (const auto& [tag, stamp] : got) {
        EXPECT_EQ(tag, expect_tag);
        EXPECT_EQ(stamp, stamp_for(tag));
        expect_tag -= 4;
    }
    EXPECT_TRUE(h.check_consistency());
    const GcStats after = gc.audit();
    EXPECT_EQ(after.leaked_blocks, 0u) << after.to_json();
    EXPECT_EQ(after.dangling_links, 0u);

    // Retired chunks must feed future carves before the bump moves: a
    // never-used size class needs a fresh chunk, and that chunk must
    // come off the reuse list.
    const uint64_t remaining = h.arena_remaining();
    for (int i = 0; i < 100; ++i)
        ASSERT_NE(h.alloc(16, dom), 0u);
    EXPECT_EQ(h.arena_remaining(), remaining)
        << "refill carved the bump arena instead of reusing a "
           "retired chunk";
}

/**
 * The compaction acceptance gate.  Crash at fuse point N for every N
 * until compact() completes, under each crash policy.  After every
 * crash: reattach, let the next GC resolve the move journal and finish
 * (or discard) the interrupted relocation, reclaim whatever the crash
 * stranded, and require a clean audit plus the exact surviving chain.
 */
TEST(HeapGcCrashSweep, CompactionSurvivesEveryFusePoint)
{
    register_node_type();
    constexpr uint64_t kNodes = 180;
    std::vector<std::pair<uint64_t, uint64_t>> expect;
    for (uint64_t t = kNodes; t-- > 0;)
        if (t % 3 == 0)
            expect.emplace_back(t, stamp_for(t));

    for (const CrashPolicy policy :
         {CrashPolicy::kDropAll, CrashPolicy::kPersistAll,
          CrashPolicy::kRandom}) {
        int completed_at = -1;
        uint64_t total_resolved = 0;
        for (int fuse = 1; fuse < 100000; ++fuse) {
            PersistentHeap heap({.size = 8u << 20});
            ShadowDomain shadow(heap.base(), heap.size(),
                                static_cast<uint64_t>(fuse) * 131 + 9);
            bool crashed = false;
            GcStats done;
            {
                NvHeap h(heap, shadow);
                heap.mark_running(shadow);
                for (uint64_t t = 0; t < kNodes; ++t)
                    ASSERT_NE(push_node(h, shadow, t), 0u);
                sparsify_chain(h, heap, shadow,
                               [](uint64_t tag) { return tag % 3 == 0; });
                int steps = 0;
                h.set_crash_hook([&] {
                    if (++steps == fuse)
                        throw HookCrash{};
                });
                HeapGc gc(h, shadow);
                try {
                    done = gc.compact();
                } catch (const HookCrash&) {
                    crashed = true;
                }
                h.set_crash_hook(nullptr);
                // Abandoned here; the dtor must not touch the heap.
            }
            if (!crashed) {
                EXPECT_GT(done.chunks_retired, 0u)
                    << "sweep workload never exercises retirement";
                completed_at = fuse;
                break;
            }
            shadow.crash(policy);
            heap.simulate_fresh_open();
            ASSERT_TRUE(heap.recovered_from_crash());

            RealDomain dom;
            NvHeap rec(heap, dom); // ctor reclaims ordinary strays
            HeapGc gc2(rec, dom);
            // The next GC's prologue resolves the interrupted move
            // journal; its repair collects duplicates a crash between
            // copy and journal-append stranded.
            const GcStats post = gc2.compact();
            total_resolved += post.journal_resolved;
            const GcStats rep = gc2.repair();
            EXPECT_FALSE(rep.repair_refused)
                << "policy " << static_cast<int>(policy) << " fuse "
                << fuse << ": " << rep.to_json();
            const GcStats fin = gc2.audit();
            EXPECT_EQ(fin.leaked_blocks, 0u)
                << "policy " << static_cast<int>(policy) << " fuse "
                << fuse << ": " << fin.to_json();
            EXPECT_EQ(fin.dangling_links, 0u)
                << "policy " << static_cast<int>(policy) << " fuse "
                << fuse << ": " << fin.to_json();
            ASSERT_TRUE(rec.check_consistency())
                << "policy " << static_cast<int>(policy) << " fuse "
                << fuse;

            const auto got = walk_chain(heap);
            ASSERT_EQ(got.size(), expect.size())
                << "policy " << static_cast<int>(policy) << " fuse "
                << fuse;
            for (size_t i = 0; i < expect.size(); ++i) {
                ASSERT_EQ(got[i], expect[i])
                    << "policy " << static_cast<int>(policy) << " fuse "
                    << fuse << " position " << i;
            }
            if (::testing::Test::HasFailure())
                return; // one broken fuse point is enough signal
        }
        EXPECT_GT(completed_at, 50)
            << "compaction has suspiciously few fuse points";
        // The sweep must actually exercise journal resolution (crashes
        // landing between the count bump and the truncate).
        EXPECT_GT(total_resolved, 0u)
            << "policy " << static_cast<int>(policy);
    }
}

// --------------------------------------------------------------------------
// Granule lookup and parallel mark vs. a brute-force oracle
// --------------------------------------------------------------------------

/**
 * Fan block: a count followed by that many link fields, so one block
 * can hold a wide link table (the shape of a hash-bucket array).
 */
void
register_fan_type()
{
    TypeDescriptor d;
    d.name = "gc.test_fan";
    d.enumerate_link_fields = [](const PersistentHeap& heap, uint64_t pub,
                                 std::vector<uint64_t>* out) {
        const uint64_t n = *heap.resolve<uint64_t>(pub);
        for (uint64_t i = 0; i < n; ++i)
            out->push_back(pub + 8 + 8 * i);
    };
    TypeRegistry::instance().register_type(TypeId::kTestBlock, d);
}

/** Allocate a fan block with room for `links` link fields, all null. */
uint64_t
alloc_fan(NvHeap& h, PersistentHeap& heap, PersistDomain& dom,
          uint64_t links, uint64_t extra_bytes = 0)
{
    const size_t bytes = 8 + 8 * links + extra_bytes;
    const uint64_t off = h.alloc(bytes, dom, TypeId::kTestBlock);
    EXPECT_NE(off, 0u);
    std::vector<uint64_t> init(bytes / 8 + 1, 0);
    init[0] = links;
    dom.store(heap.resolve<void>(off), init.data(), bytes);
    dom.flush(heap.resolve<void>(off), bytes);
    dom.fence();
    return off;
}

void
set_link(PersistentHeap& heap, PersistDomain& dom, uint64_t fan,
         uint64_t i, uint64_t target)
{
    uint64_t* f = heap.resolve<uint64_t>(fan + 8 + 8 * i);
    dom.store_val(f, target);
    dom.flush(f, sizeof(uint64_t));
    dom.fence();
}

/** Plant a relocation carcass: a MOVED header, as compaction leaves. */
void
mark_moved(PersistentHeap& heap, PersistDomain& dom, uint64_t raw)
{
    uint64_t* meta = heap.resolve<uint64_t>(raw - 8);
    dom.store_val(meta, (*meta & ~uint64_t{0xffff}) | NvHeap::kBlockMoved);
    dom.flush(meta, sizeof(uint64_t));
    dom.fence();
}

/**
 * Brute-force reference for the GC's lookup and mark: every block the
 * allocator's own header walk reports, searched linearly per query.
 */
struct Oracle
{
    struct Blk
    {
        uint64_t raw, size, meta;
    };

    explicit Oracle(NvHeap& h) : alloc(h), heap(h.heap())
    {
        h.for_each_block([&](uint64_t raw, uint64_t size, uint64_t meta) {
            blocks.push_back(Blk{raw, size, meta});
        });
    }

    /** Index of the block whose payload holds off, or -1. */
    long
    owner(uint64_t off) const
    {
        for (size_t i = 0; i < blocks.size(); ++i)
            if (off >= blocks[i].raw && off < blocks[i].raw + blocks[i].size)
                return static_cast<long>(i);
        return -1;
    }

    /** owner() of every query, by one linear sweep (queries sorted
     *  here) -- the same answers, fast enough for big corpora. */
    std::map<uint64_t, long>
    owners(std::vector<uint64_t> offs) const
    {
        std::sort(offs.begin(), offs.end());
        std::map<uint64_t, long> out;
        size_t i = 0;
        for (const uint64_t off : offs) {
            while (i < blocks.size() && blocks[i].raw + blocks[i].size <= off)
                ++i;
            out[off] = i < blocks.size() && blocks[i].raw <= off
                           ? static_cast<long>(i)
                           : -1;
        }
        return out;
    }

    static bool
    live(const Blk& b)
    {
        return (b.meta & 0xffff) == NvHeap::kBlockLive;
    }

    /** Link values of a typed (fan) LIVE block; none for others. */
    std::vector<uint64_t>
    links(const Blk& b) const
    {
        std::vector<uint64_t> out;
        if (!live(b) || alloc.block_type(b.raw) != TypeId::kTestBlock)
            return out;
        const uint64_t n = *heap.resolve<uint64_t>(b.raw);
        for (uint64_t i = 0; i < n; ++i) {
            const uint64_t v = *heap.resolve<uint64_t>(b.raw + 8 + 8 * i);
            if (v != 0)
                out.push_back(v);
        }
        return out;
    }

    /** Reach from the block roots: marked raw offsets (ascending) and
     *  the number of links resolving to no LIVE block. */
    void
    mark(std::vector<uint64_t>* marked, uint64_t* dangling) const
    {
        std::vector<uint64_t> queries;
        for (const auto& [slot, off] : RootRegistry::block_roots(heap))
            queries.push_back(off);
        for (const Blk& b : blocks)
            for (const uint64_t v : links(b))
                queries.push_back(v);
        const std::map<uint64_t, long> own = owners(queries);
        std::vector<bool> seen(blocks.size(), false);
        std::vector<size_t> work;
        *dangling = 0;
        const auto reach = [&](uint64_t v) {
            const long i = own.at(v);
            if (i < 0 || !live(blocks[i])) {
                ++*dangling;
                return;
            }
            if (!seen[i]) {
                seen[i] = true;
                work.push_back(static_cast<size_t>(i));
            }
        };
        for (const auto& [slot, off] : RootRegistry::block_roots(heap))
            reach(off);
        while (!work.empty()) {
            const size_t i = work.back();
            work.pop_back();
            for (const uint64_t v : links(blocks[i]))
                reach(v);
        }
        marked->clear();
        for (size_t i = 0; i < blocks.size(); ++i)
            if (seen[i])
                marked->push_back(blocks[i].raw);
    }

    NvHeap& alloc;
    PersistentHeap& heap;
    std::vector<Blk> blocks;
};

/** Every count and finding of a run; the phase timings vary. */
std::string
census_json(GcStats s)
{
    s.index_ns = s.mark_ns = s.census_ns = 0;
    return s.to_json();
}

/**
 * A mixed corpus: every size class, oversize blocks spanning many
 * granules, FREEING / FREE / MOVED blocks, plus a hub block linking to
 * the interesting offsets of each: first, interior and last payload
 * byte, both header words, and the bytes just past the end.
 */
struct LookupCorpus : public ::testing::Test
{
    LookupCorpus() : heap({.size = 16u << 20}), dom(), h(heap, dom)
    {
        register_fan_type();
        for (int round = 0; round < 3; ++round) {
            for (const uint64_t links : {0, 1, 5, 11, 23, 47, 63, 127, 250,
                                         500, 1000})
                blocks.push_back(alloc_fan(h, heap, dom, links));
            // Oversize: carved straight from the arena, many granules.
            blocks.push_back(alloc_fan(h, heap, dom, 0, 40u << 10));
            blocks.push_back(alloc_fan(h, heap, dom, 0, (1u << 20) + 24));
        }
        // Non-LIVE targets: parked (FREEING), flushed (FREE), MOVED.
        h.free_block(blocks[1], dom);
        h.free_block(blocks[14], dom);
        h.flush_transient_caches(dom);
        h.free_block(blocks[2], dom);
        mark_moved(heap, dom, blocks[3]);

        Oracle o(h);
        std::vector<uint64_t> targets;
        for (const Oracle::Blk& b : o.blocks) {
            for (const uint64_t t :
                 {b.raw, b.raw + 1, b.raw + b.size / 2, b.raw + b.size - 1,
                  b.raw - 16, b.raw - 8, b.raw - 1, b.raw + b.size,
                  b.raw + b.size + 8})
                targets.push_back(t);
        }
        const uint64_t end = o.blocks.back().raw + o.blocks.back().size;
        for (const uint64_t t : {end, end + 64, end + 4096, heap.size() - 8})
            targets.push_back(t);
        hub = alloc_fan(h, heap, dom, targets.size());
        for (size_t i = 0; i < targets.size(); ++i)
            set_link(heap, dom, hub, i, targets[i]);
        RootRegistry::set_ref(heap, RootSlot::kUser0, hub, dom);
    }

    PersistentHeap heap;
    RealDomain dom;
    NvHeap h;
    std::vector<uint64_t> blocks;
    uint64_t hub = 0;
};

TEST_F(LookupCorpus, GranuleLookupMatchesLinearScan)
{
    HeapGc gc(h, dom);
    gc.audit(); // builds the index
    const Oracle o(h);
    ASSERT_GT(o.blocks.size(), 30u);
    // Every block boundary, byte by byte: header bytes, first and last
    // payload bytes, the gap to the next header.
    for (const Oracle::Blk& b : o.blocks) {
        for (uint64_t off = b.raw - 20; off < b.raw + 4; ++off)
            ASSERT_EQ(gc.block_containing(off),
                      o.owner(off) < 0 ? 0 : o.blocks[o.owner(off)].raw)
                << "offset " << off;
        for (uint64_t off = b.raw + b.size - 4; off < b.raw + b.size + 20;
             ++off)
            ASSERT_EQ(gc.block_containing(off),
                      o.owner(off) < 0 ? 0 : o.blocks[o.owner(off)].raw)
                << "offset " << off;
    }
    // And every word of the used arena and past it, so each granule
    // boundary -- wherever the index put them -- is crossed.
    std::vector<uint64_t> offs;
    const uint64_t end = o.blocks.back().raw + o.blocks.back().size;
    for (uint64_t off = o.blocks.front().raw - 256; off < end + 8192;
         off += 8)
        offs.push_back(off);
    const std::map<uint64_t, long> own = o.owners(offs);
    for (const auto& [off, i] : own)
        ASSERT_EQ(gc.block_containing(off), i < 0 ? 0 : o.blocks[i].raw)
            << "offset " << off;
    EXPECT_EQ(gc.block_containing(0), 0u);
    EXPECT_EQ(gc.block_containing(heap.size() - 8), 0u);
}

TEST_F(LookupCorpus, MarkMatchesOracleOnEveryTargetKind)
{
    HeapGc gc(h, dom);
    const GcStats s = gc.audit();
    std::vector<uint64_t> expect_marked;
    uint64_t expect_dangling = 0;
    Oracle(h).mark(&expect_marked, &expect_dangling);
    // The hub links into header bytes, past bump and at each non-LIVE
    // block, so the corpus must produce dangling links of every kind.
    ASSERT_GT(expect_dangling, 100u);
    EXPECT_EQ(s.dangling_links, expect_dangling) << s.to_json();
    EXPECT_EQ(gc.marked_blocks(), expect_marked);
    EXPECT_EQ(s.leaked_blocks, s.live_blocks - expect_marked.size());
    EXPECT_EQ(s.findings.size(), HeapGc::kMaxFindings + 1);
    EXPECT_EQ(s.findings.back(), "... (further findings elided)");
}

/**
 * Big corpus: a hub with a wide link table over 64 Ki leaves, each
 * leaf linking two pseudo-random targets (other leaves' interiors,
 * header bytes, freed leaves, unused arena).  The hub's table and the
 * leaf level both exceed kParallelFrontier, so both parallel paths run.
 */
TEST(HeapGcParallelMark, WideCorpusMatchesOracleAndIsDeterministic)
{
    register_fan_type();
    PersistentHeap heap({.size = 32u << 20});
    RealDomain dom;
    NvHeap h(heap, dom);
    constexpr uint64_t kLeaves = 64 * 1024;
    static_assert(kLeaves >= 2 * HeapGc::kParallelFrontier);
    std::vector<uint64_t> leaves(kLeaves);
    for (uint64_t i = 0; i < kLeaves; ++i)
        leaves[i] = alloc_fan(h, heap, dom, 2);
    const uint64_t hub = alloc_fan(h, heap, dom, kLeaves);
    uint64_t x = 0x9e3779b97f4a7c15ull;
    const auto rnd = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    for (uint64_t i = 0; i < kLeaves; ++i) {
        // Three in four leaves hang off the hub (a level above
        // kParallelFrontier); the rest are reachable only through other
        // leaves (deeper levels) or not at all.
        if (i % 4 != 3)
            set_link(heap, dom, hub, i, leaves[i]);
        for (uint64_t k = 0; k < 2; ++k) {
            const uint64_t t = leaves[rnd() % kLeaves];
            // Mostly plain links; then a header word, an interior link
            // field, unused arena, and null.
            const uint64_t kind = rnd() % 8;
            const uint64_t v = kind == 0   ? t - 8
                               : kind == 1 ? t + 8 + 8 * (rnd() % 2)
                               : kind == 2 ? heap.size() - 64
                               : kind == 3 ? 0
                                           : t;
            set_link(heap, dom, leaves[i], k, v);
        }
    }
    RootRegistry::set_ref(heap, RootSlot::kUser0, hub, dom);
    // Freed leaves turn every link at them into a non-LIVE target.
    for (uint64_t i = 5; i < kLeaves; i += 97)
        h.free_block(leaves[i], dom);
    h.flush_transient_caches(dom);

    HeapGc gc(h, dom);
    const GcStats first = gc.audit();
    std::vector<uint64_t> expect_marked;
    uint64_t expect_dangling = 0;
    Oracle(h).mark(&expect_marked, &expect_dangling);
    ASSERT_GT(expect_marked.size(), kLeaves / 2);
    ASSERT_GT(expect_dangling, 0u);
    EXPECT_EQ(first.dangling_links, expect_dangling);
    EXPECT_EQ(gc.marked_blocks(), expect_marked);
    EXPECT_EQ(first.leaked_blocks,
              first.live_blocks - expect_marked.size());

    // Findings are ordered by the block holding the bad link, so the
    // whole report is the same on every schedule.
    const std::string want = census_json(first);
    for (int run = 0; run < 10; ++run)
        ASSERT_EQ(census_json(HeapGc(h, dom).audit()), want) << "run " << run;
}

// --------------------------------------------------------------------------
// The batched resolver at its batch boundaries
// --------------------------------------------------------------------------

/** A probe slot holding this value enumerates as a link field past the
 *  end of the heap (the shape of a corrupt table length). */
constexpr uint64_t kOutsideField = 0x0badf1e1d0000001ull;

/**
 * Probe block: the fan layout (a count, then that many link fields)
 * under a type that declares a 32-byte payload, so a 16-byte probe is
 * undersized, and whose kOutsideField slots lie outside the heap.
 */
void
register_probe_type()
{
    TypeDescriptor d;
    d.name = "gc.test_probe";
    d.payload_size = 32;
    d.enumerate_link_fields = [](const PersistentHeap& heap, uint64_t pub,
                                 std::vector<uint64_t>* out) {
        const uint64_t n = *heap.resolve<uint64_t>(pub);
        for (uint64_t i = 0; i < n; ++i) {
            const uint64_t f = pub + 8 + 8 * i;
            out->push_back(*heap.resolve<uint64_t>(f) == kOutsideField
                               ? heap.size()
                               : f);
        }
    };
    TypeRegistry::instance().register_type(TypeId::kTestBlock, d);
}

/** What a GC run over a probe corpus must report. */
struct ProbeExpect
{
    std::vector<uint64_t> marked;
    uint64_t dangling = 0;
    std::vector<std::string> findings;
};

/**
 * The probe corpus's audit, computed the slow way from the
 * for_each_block list: reach from the roots, one finding per bad link
 * or undersized block ordered by (block, link position), then the
 * census's leak lines, capped as HeapGc caps them.
 */
ProbeExpect
probe_oracle(NvHeap& h)
{
    const Oracle o(h);
    const PersistentHeap& heap = o.heap;
    const auto hex = [](uint64_t v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "0x%llx", (unsigned long long)v);
        return std::string(buf);
    };
    const auto count = [&](const Oracle::Blk& b) {
        return *heap.resolve<uint64_t>(b.raw);
    };
    const auto slot = [&](const Oracle::Blk& b, uint64_t k) {
        return *heap.resolve<uint64_t>(b.raw + 8 + 8 * k);
    };
    const auto traced = [](const Oracle::Blk& b) {
        return Oracle::live(b) && b.size >= 32;
    };
    std::vector<uint64_t> queries;
    for (const auto& [root, off] : RootRegistry::block_roots(heap))
        queries.push_back(off);
    for (const Oracle::Blk& b : o.blocks)
        if (traced(b))
            for (uint64_t k = 0; k < count(b); ++k)
                if (slot(b, k) != 0 && slot(b, k) != kOutsideField)
                    queries.push_back(slot(b, k));
    const std::map<uint64_t, long> own = o.owners(queries);

    struct Found
    {
        uint64_t src, seq;
        std::string text;
    };
    std::vector<Found> found;
    ProbeExpect e;
    std::vector<bool> seen(o.blocks.size(), false);
    std::vector<size_t> work;
    const auto reach = [&](uint64_t v, uint64_t src, uint64_t seq) {
        const long i = own.at(v);
        const std::string link =
            "link gc.test_probe@" + hex(src) + " -> " + hex(v);
        if (i < 0 || !Oracle::live(o.blocks[i])) {
            ++e.dangling;
            found.push_back({src, seq,
                             link + (i < 0 ? " hits no block"
                                           : " targets a non-LIVE block")});
        } else if (!seen[i]) {
            seen[i] = true;
            work.push_back(static_cast<size_t>(i));
        }
    };
    for (const auto& [root, off] : RootRegistry::block_roots(heap))
        reach(off, 0, 0);
    while (!work.empty()) {
        const Oracle::Blk& b = o.blocks[work.back()];
        work.pop_back();
        if (!traced(b)) {
            found.push_back({b.raw, 0,
                             "block " + hex(b.raw) + " typed gc.test_probe"
                                 + " is smaller than its declared payload"});
            continue;
        }
        for (uint64_t k = 0; k < count(b); ++k) {
            if (slot(b, k) == kOutsideField) {
                ++e.dangling;
                found.push_back({b.raw, k + 1,
                                 "link field of " + hex(b.raw)
                                     + " lies outside the heap"});
            } else if (slot(b, k) != 0) {
                reach(slot(b, k), b.raw, k + 1);
            }
        }
    }
    std::sort(found.begin(), found.end(), [](const Found& a, const Found& b) {
        return a.src != b.src ? a.src < b.src : a.seq < b.seq;
    });
    for (const Found& f : found)
        e.findings.push_back(f.text);
    for (size_t i = 0; i < o.blocks.size(); ++i) {
        const Oracle::Blk& b = o.blocks[i];
        if (seen[i])
            e.marked.push_back(b.raw);
        else if (Oracle::live(b))
            e.findings.push_back("leak: gc.test_probe block " + hex(b.raw)
                                 + " (" + std::to_string(b.size)
                                 + "B) is LIVE but unreachable");
    }
    if (e.findings.size() > HeapGc::kMaxFindings) {
        e.findings.resize(HeapGc::kMaxFindings);
        e.findings.push_back("... (further findings elided)");
    }
    return e;
}

/**
 * A hub (the root) whose table links `children` probes, then a tail
 * of 128 fields.  Bad links -- hitting no block, hitting a freed
 * block, lying outside the heap, and reaching an undersized probe --
 * sit at the resolver's batch boundaries, kinds rotating:
 *  - hub fields children + 63/64/65 (one table batch ends, the next
 *    begins);
 *  - fields 63/64/65 of every 64th child, whose 70 fields are traced
 *    in batches of their own;
 *  - all three fields of the 3-field children at frontier positions
 *    1, 22 and 63 of each 64-block batch: position 63 ends a claimed
 *    batch, and the links of child 22 are links 63/64/65 of the lane
 *    buffer its batch loads after child 0's table.
 * Good fields link leaves and other children (already-marked hits).
 * Every block precedes, in address order, the blocks linking it, so
 * the capped findings start at the first children.  Checks the audit
 * against probe_oracle, and that ten audits render identically.
 */
void
check_probe_corpus(uint64_t children)
{
    register_probe_type();
    PersistentHeap heap({.size = 32u << 20});
    RealDomain dom;
    NvHeap h(heap, dom);
    std::vector<uint64_t> leaves, doomed;
    for (int i = 0; i < 64; ++i) {
        leaves.push_back(alloc_fan(h, heap, dom, 3));
        doomed.push_back(alloc_fan(h, heap, dom, 3));
    }
    uint64_t planted = 0;
    const auto bad = [&](uint64_t kind) -> uint64_t {
        ++planted;
        switch (kind % 4) {
        case 0:
            return leaves[planted % 64] - 8; // a header word
        case 1:
            return doomed[planted % 64];
        case 2:
            return kOutsideField;
        default:
            return alloc_fan(h, heap, dom, 1); // 16 bytes: undersized
        }
    };
    std::vector<uint64_t> kids;
    std::vector<std::vector<uint64_t>> kid_links;
    for (uint64_t i = 0; i < children; ++i) {
        const uint64_t pos = i % 64;
        const uint64_t n = pos == 0 ? 70 : 3;
        std::vector<uint64_t> links(n);
        for (uint64_t k = 0; k < n; ++k) {
            const bool boundary = n == 70
                                      ? k >= 63 && k <= 65
                                      : pos == 1 || pos == 22 || pos == 63;
            links[k] = boundary ? bad(i + k) : 0;
        }
        kids.push_back(alloc_fan(h, heap, dom, n));
        kid_links.push_back(std::move(links));
    }
    for (uint64_t i = 0; i < children; ++i) {
        std::vector<uint64_t>& links = kid_links[i];
        for (uint64_t k = 0; k < links.size(); ++k) {
            if (links[k] == 0)
                links[k] = k % 2 == 0 ? leaves[(i + k) % 64]
                                      : kids[(i * 7 + k) % children];
        }
        dom.store(heap.resolve<void>(kids[i] + 8), links.data(),
                  8 * links.size());
    }
    const uint64_t hub = alloc_fan(h, heap, dom, children + 128);
    std::vector<uint64_t> table(children + 128, 0);
    for (uint64_t i = 0; i < children; ++i)
        table[i] = kids[i];
    for (uint64_t k = 63; k <= 65; ++k)
        table[children + k] = bad(k);
    dom.store(heap.resolve<void>(hub + 8), table.data(), 8 * table.size());
    dom.flush(heap.resolve<void>(heap.arena_begin()),
              heap.size() - heap.arena_begin());
    dom.fence();
    RootRegistry::set_ref(heap, RootSlot::kUser0, hub, dom);
    for (const uint64_t d : doomed)
        h.free_block(d, dom);
    h.flush_transient_caches(dom);

    HeapGc gc(h, dom);
    const GcStats first = gc.audit();
    const ProbeExpect want = probe_oracle(h);
    ASSERT_GT(want.dangling, children / 16);
    ASSERT_EQ(want.findings.size(), HeapGc::kMaxFindings + 1);
    // The reported (lowest) findings hold every kind of bad link.
    for (const char* kind : {"hits no block", "targets a non-LIVE block",
                             "lies outside the heap",
                             "smaller than its declared payload"})
        EXPECT_TRUE(std::any_of(want.findings.begin(), want.findings.end(),
                                [&](const std::string& f) {
                                    return f.find(kind) != std::string::npos;
                                }))
            << kind;
    EXPECT_EQ(first.dangling_links, want.dangling);
    EXPECT_EQ(first.findings, want.findings);
    EXPECT_EQ(gc.marked_blocks(), want.marked);
    EXPECT_EQ(first.leaked_blocks, first.live_blocks - want.marked.size());
    const std::string json = census_json(first);
    for (int run = 0; run < 10; ++run)
        ASSERT_EQ(census_json(HeapGc(h, dom).audit()), json) << "run " << run;
}

TEST(HeapGcResolver, BatchBoundariesInASerialLevel)
{
    check_probe_corpus(256);
}

TEST(HeapGcResolver, BatchBoundariesInAParallelLevelAndAWideTable)
{
    // The hub's table is wide enough to be split over every lane, and
    // the children form a level traced in parallel.
    constexpr uint64_t kChildren = HeapGc::kParallelFrontier + 256;
    static_assert(kChildren % 64 == 0);
    check_probe_corpus(kChildren);
}

// --------------------------------------------------------------------------
// The crash attach's index handed to the audit
// --------------------------------------------------------------------------

/**
 * A crash attach indexes every block as its pass leaves the heap, and
 * recovery hands that index to the audit instead of walking the
 * headers again.  The audit on it must be the audit that walks.  The
 * corpus: fans of every size class (and some oversize) linking to
 * earlier fans, a third of them freed -- some spilled to the lists,
 * the rest parked in the cache the crash kills, so the attach relinks
 * strays and links at freed fans turn into dangling findings.
 * Returns the chunk count the audit saw.
 */
size_t
check_adopted_index(size_t heap_mib, uint64_t used)
{
    register_fan_type();
    PersistentHeap heap({.size = heap_mib << 20});
    RealDomain dom;
    uint64_t x = 0x9e3779b97f4a7c15ull;
    const auto rnd = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    {
        NvHeap h(heap, dom);
        heap.mark_running(dom);
        std::vector<uint64_t> fans;
        while (heap.size() - h.arena_remaining() < used) {
            const uint64_t links = rnd() % 500;
            const uint64_t f = alloc_fan(h, heap, dom, links,
                                         rnd() % 64 == 0 ? 6000 : 0);
            for (uint64_t k = 0; k < links && !fans.empty(); k += 50)
                set_link(heap, dom, f, k, fans[rnd() % fans.size()]);
            fans.push_back(f);
        }
        RootRegistry::set_ref(heap, RootSlot::kUser0, fans.back(), dom);
        for (size_t i = 0; i + 1 < fans.size(); i += 3)
            h.free_block(fans[i], dom);
        // Dies here: no cache spill, no clean mark.
    }
    heap.simulate_fresh_open();
    EXPECT_TRUE(heap.recovered_from_crash());
    NvHeap rec(heap, dom);
    NvHeap::AttachReclaim at = rec.take_attach_reclaim();
    EXPECT_GT(at.blocks, 0u);
    if (!at.index.has_value()) {
        ADD_FAILURE() << "a crash attach kept no index";
        return 0;
    }
    HeapGc handed(rec, dom);
    handed.adopt_index(std::move(*at.index));
    const GcStats got = handed.audit();
    HeapGc walked(rec, dom);
    const GcStats want = walked.audit();
    EXPECT_GT(want.live_blocks, 500u);
    EXPECT_GT(want.dangling_links, 0u);
    EXPECT_EQ(census_json(got), census_json(want));
    EXPECT_EQ(handed.marked_blocks(), walked.marked_blocks());
    return want.chunks;
}

TEST(HeapGcAdoptedIndex, AuditMatchesAWalkingAuditSerial)
{
    EXPECT_LT(check_adopted_index(4, 3u << 20), kParallelChunks);
}

TEST(HeapGcAdoptedIndex, AuditMatchesAWalkingAuditParallel)
{
    const uint64_t used = (kParallelChunks + 200) * NvHeap::kChunkBytes;
    EXPECT_GT(check_adopted_index(32, used), kParallelChunks);
}

} // namespace
} // namespace ido::nvm
