#include "nvm/heap_gc.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>

#include "common/panic.h"
#include "nvm/persist_domain.h"
#include "stats/metrics.h"
#include "stats/stat_plane.h"

namespace ido::nvm {

namespace {

constexpr size_t kNpos = static_cast<size_t>(-1);

void
json_escape(const std::string& in, std::string* out)
{
    for (char c : in) {
        if (c == '"' || c == '\\')
            out->push_back('\\');
        if (static_cast<unsigned char>(c) < 0x20)
            c = ' ';
        out->push_back(c);
    }
}

std::string
hex(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx", (unsigned long long)v);
    return buf;
}

/** Frontier blocks, or wide-table link fields, a mark thread claims
 *  at a time; also the window the resolver prefetches ahead by. */
constexpr size_t kClaimBatch = 64;

inline void
prefetch(const void* p)
{
    __builtin_prefetch(p, 0, 3);
}

/**
 * A problem the mark found in one traced block, kept as raw facts and
 * rendered to text only if it survives the findings cap.  Findings are
 * ordered by (src, seq): the block holding the bad link, then the
 * link's position in that block -- the same on every schedule.
 */
struct MarkFinding
{
    enum Kind : uint8_t
    {
        kUndersized,   ///< block smaller than its type's payload
        kFieldOutside, ///< link field lies outside the heap
        kHitsNoBlock,  ///< link value resolves to no block
        kNonLive,      ///< link value resolves to a non-LIVE block
    };
    uint64_t src;    ///< raw offset of the traced block
    uint64_t seq;    ///< 0 for the block itself, 1.. for its link fields
    uint64_t target; ///< the link value (kHitsNoBlock / kNonLive)
    const TypeDescriptor* type;
    Kind kind;

    bool
    operator<(const MarkFinding& o) const
    {
        return src != o.src ? src < o.src : seq < o.seq;
    }

    std::string
    render() const
    {
        const std::string link =
            "link " + type->name + "@" + hex(src) + " -> " + hex(target);
        switch (kind) {
        case kUndersized:
            return "block " + hex(src) + " typed " + type->name
                   + " is smaller than its declared payload";
        case kFieldOutside:
            return "link field of " + hex(src) + " lies outside the heap";
        case kHitsNoBlock:
            return link + " hits no block";
        case kNonLive:
            return link + " targets a non-LIVE block";
        }
        return link;
    }
};

/** A link the mark has loaded but not yet resolved. */
struct PendingLink
{
    uint64_t value; ///< the link's target offset, never 0
    uint64_t src;   ///< raw offset of the traced block
    uint64_t seq;   ///< the link's position in that block, from 1
    const TypeDescriptor* type;
};

} // namespace

/** One mark thread's private state; lanes are folded after the mark. */
struct HeapGc::MarkLane
{
    std::vector<uint32_t> next;   ///< blocks this lane claimed this level
    std::vector<uint64_t> fields; ///< scratch: one block's link fields
    std::vector<PendingLink> links; ///< loaded, awaiting resolve_links
    uint64_t dangling = 0;
    /** The kMaxFindings + 1 lowest findings seen (a max-heap): enough
     *  to fill the report and decide whether it was elided. */
    std::vector<MarkFinding> findings;

    void
    find(const MarkFinding& f)
    {
        findings.push_back(f);
        std::push_heap(findings.begin(), findings.end());
        if (findings.size() > kMaxFindings + 1) {
            std::pop_heap(findings.begin(), findings.end());
            findings.pop_back();
        }
    }
};

std::string
GcStats::to_json() const
{
    std::string s = "{";
    auto num = [&](const char* k, uint64_t v, bool comma = true) {
        s += '"';
        s += k;
        s += "\":";
        s += std::to_string(v);
        if (comma)
            s += ',';
    };
    num("blocks", blocks);
    num("bytes", bytes);
    num("live_blocks", live_blocks);
    num("live_bytes", live_bytes);
    num("free_blocks", free_blocks);
    num("moved_blocks", moved_blocks);
    num("chunks", chunks);
    num("leaked_blocks", leaked_blocks);
    num("leaked_bytes", leaked_bytes);
    num("dangling_links", dangling_links);
    num("opaque_live", opaque_live);
    num("pinned_blocks", pinned_blocks);
    num("reclaimed_blocks", reclaimed_blocks);
    num("reclaimed_bytes", reclaimed_bytes);
    num("relocated_blocks", relocated_blocks);
    num("relocated_bytes", relocated_bytes);
    num("chunks_retired", chunks_retired);
    num("journal_resolved", journal_resolved);
    num("index_ns", index_ns);
    num("mark_ns", mark_ns);
    num("census_ns", census_ns);
    s += "\"repair_refused\":";
    s += repair_refused ? "true," : "false,";
    s += "\"relocation_refused\":";
    s += relocation_refused ? "true," : "false,";
    s += "\"findings\":[";
    for (size_t i = 0; i < findings.size(); ++i) {
        if (i)
            s += ',';
        s += '"';
        json_escape(findings[i], &s);
        s += '"';
    }
    s += "]}";
    return s;
}

HeapGc::HeapGc(NvHeap& heap, PersistDomain& dom) : heap_(heap), dom_(dom) {}

uint64_t
HeapGc::published_off(const BlockInfo& b) const
{
    if (!NvHeap::meta_aligned(b.meta))
        return b.raw;
    return (b.raw + 8 + 63) & ~uint64_t{63};
}

size_t
HeapGc::find_block(uint64_t off) const
{
    // An interior pointer lands anywhere in [raw, raw + size): the
    // owner is the last block starting at or before off.  Blocks before
    // the granule's first start before the granule, blocks from the
    // next granule's first on start after off, so counting the few
    // blocks that start in off's granule at or before it finds the
    // owner (a count, not a branchy binary search: two to four
    // candidates).
    const uint32_t* g = granule_of(off);
    if (g == nullptr)
        return kNpos;
    size_t n = g[0];
    for (size_t k = g[0]; k < g[1]; ++k)
        n += blocks_[k].raw <= off;
    if (n == 0)
        return kNpos;
    const size_t i = n - 1;
    const BlockInfo& b = blocks_[i];
    if (off < b.raw || off >= b.raw + b.size)
        return kNpos;
    return i;
}

void
HeapGc::note(GcStats* s, std::string line) const
{
    if (s->findings.size() < kMaxFindings)
        s->findings.push_back(std::move(line));
    else if (s->findings.size() == kMaxFindings)
        s->findings.push_back("... (further findings elided)");
}

uint64_t
HeapGc::block_containing(uint64_t off) const
{
    const size_t i = find_block(off);
    return i == kNpos ? 0 : blocks_[i].raw;
}

std::vector<uint64_t>
HeapGc::marked_blocks() const
{
    std::vector<uint64_t> out;
    for (const BlockInfo& b : blocks_)
        if (b.marked)
            out.push_back(b.raw);
    return out;
}

void
HeapGc::collect_link_fields(const BlockInfo& b,
                            std::vector<uint64_t>* out) const
{
    const TypeDescriptor* d = descriptor(b.meta);
    if (d == nullptr)
        return;
    const uint64_t pub = published_off(b);
    for (const uint32_t o : d->link_offsets)
        out->push_back(pub + o);
    if (d->enumerate_link_fields)
        d->enumerate_link_fields(heap_.heap_, pub, out);
}

void
HeapGc::adopt_index(HeapIndex index)
{
    adopted_ = std::move(index);
}

void
HeapGc::build_index()
{
    types_ = TypeRegistry::instance().snapshot();
    HeapIndex idx;
    if (adopted_) {
        idx = std::move(*adopted_);
        adopted_.reset();
    } else {
        const ArenaWalk walk = heap_.arena_walk();
        IDO_ASSERT(walk.end() != ArenaWalk::End::kMalformed,
                   "heap_gc: malformed chunk header or oversize block");
        const bool ok = walk.index(&idx);
        IDO_ASSERT(ok, "heap_gc: block overruns its chunk");
    }
    blocks_ = std::move(idx.blocks);
    chunks_ = std::move(idx.chunks);
    build_granules();
}

void
HeapGc::build_granules()
{
    granule_first_.clear();
    granule_base_ = granule_limit_ = 0;
    granule_shift_ = 0;
    if (blocks_.empty())
        return;
    IDO_ASSERT(blocks_.size() < UINT32_MAX, "heap_gc: too many blocks");
    // Blocks are sorted and disjoint: the last one ends the used span.
    granule_base_ = blocks_.front().raw;
    granule_limit_ = blocks_.back().raw + blocks_.back().size;
    const uint64_t span = granule_limit_ - granule_base_;
    const uint64_t want =
        std::max<uint64_t>(64, span / blocks_.size() * 2);
    granule_shift_ = static_cast<unsigned>(std::bit_width(want - 1));
    const size_t granules =
        static_cast<size_t>(((span - 1) >> granule_shift_) + 1);
    granule_first_.resize(granules + 1);
    const auto granule_start = [&](size_t g) {
        return granule_base_ + (static_cast<uint64_t>(g) << granule_shift_);
    };
    // Each range of granules finds its first block by binary search,
    // then steps through the blocks it covers.
    const auto fill = [&](size_t, size_t begin, size_t end) {
        auto it = std::lower_bound(
            blocks_.begin(), blocks_.end(), granule_start(begin),
            [](const BlockInfo& b, uint64_t v) { return b.raw < v; });
        for (size_t g = begin; g < end; ++g) {
            while (it != blocks_.end() && it->raw < granule_start(g))
                ++it;
            granule_first_[g] = static_cast<uint32_t>(it - blocks_.begin());
        }
    };
    parallel_ranges(granules + 1,
                    blocks_.size() < kParallelFrontier ? 1 : worker_count(),
                    4096, fill);
}

const uint32_t*
HeapGc::granule_of(uint64_t off) const
{
    if (off < granule_base_ || off >= granule_limit_)
        return nullptr;
    return &granule_first_[(off - granule_base_) >> granule_shift_];
}

void
HeapGc::trace_blocks(const uint32_t* ids, size_t n, MarkLane* lane,
                     std::vector<MarkLane>* fan)
{
    PersistentHeap& ph = heap_.heap_;
    // Stage 1: the batch's index entries, then its link fields.
    for (size_t k = 0; k < n; ++k)
        prefetch(&blocks_[ids[k]]);
    for (size_t k = 0; k < n; ++k) {
        const BlockInfo& b = blocks_[ids[k]];
        const TypeDescriptor* d = descriptor(b.meta);
        if (d == nullptr)
            continue;
        const uint64_t pub = published_off(b);
        prefetch(ph.resolve<char>(pub));
        for (const uint32_t o : d->link_offsets)
            if (pub + o < ph.size())
                prefetch(ph.resolve<char>(pub + o));
    }
    // Stage 2: every non-null link into the lane buffer.
    for (size_t k = 0; k < n; ++k) {
        const BlockInfo& b = blocks_[ids[k]];
        const TypeDescriptor* d = descriptor(b.meta);
        if (d == nullptr)
            continue; // opaque: reachable, never traced through
        const uint64_t pub = published_off(b);
        if (d->payload_size != 0 && pub + d->payload_size > b.raw + b.size) {
            lane->find({b.raw, 0, 0, d, MarkFinding::kUndersized});
            continue;
        }
        lane->fields.clear();
        collect_link_fields(b, &lane->fields);
        const std::vector<uint64_t>& fields = lane->fields;
        if (fields.size() <= kClaimBatch) {
            for (size_t f = 0; f < fields.size(); ++f)
                load_link(b.raw, d, fields[f], f + 1, lane);
            continue;
        }
        // A wide link table (a hash-bucket array) is traced in batches
        // of its own; one with a level's worth of links is split over
        // every lane (`fan` lanes other than this one are idle here).
        if (fan != nullptr && fields.size() >= kParallelFrontier) {
            parallel_ranges(fields.size(), fan->size(), kClaimBatch,
                            [&](size_t w, size_t begin, size_t end) {
                                trace_fields(b.raw, d, fields, begin, end,
                                             &(*fan)[w]);
                            });
        } else {
            for (size_t f = 0; f < fields.size(); f += kClaimBatch)
                trace_fields(b.raw, d, fields, f,
                             std::min(f + kClaimBatch, fields.size()), lane);
        }
    }
    resolve_links(lane);
}

void
HeapGc::trace_fields(uint64_t src, const TypeDescriptor* d,
                     const std::vector<uint64_t>& fields, size_t begin,
                     size_t end, MarkLane* lane)
{
    PersistentHeap& ph = heap_.heap_;
    for (size_t f = begin; f < end; ++f)
        if (fields[f] < ph.size())
            prefetch(ph.resolve<char>(fields[f]));
    for (size_t f = begin; f < end; ++f)
        load_link(src, d, fields[f], f + 1, lane);
    resolve_links(lane);
}

void
HeapGc::load_link(uint64_t src, const TypeDescriptor* d, uint64_t field,
                  uint64_t seq, MarkLane* lane)
{
    PersistentHeap& ph = heap_.heap_;
    if (field + sizeof(uint64_t) > ph.size()) {
        ++lane->dangling;
        lane->find({src, seq, 0, d, MarkFinding::kFieldOutside});
        return;
    }
    const uint64_t v = *ph.resolve<uint64_t>(field);
    if (v != 0)
        lane->links.push_back(PendingLink{v, src, seq, d});
}

void
HeapGc::resolve_links(MarkLane* lane)
{
    const std::vector<PendingLink>& links = lane->links;
    for (size_t w = 0; w < links.size(); w += kClaimBatch) {
        const size_t end = std::min(w + kClaimBatch, links.size());
        // Stage 3: each target's granule entry, then the index entries
        // it names -- the first block starting in the granule, and the
        // last block a lookup there can return.
        for (size_t k = w; k < end; ++k)
            if (const uint32_t* g = granule_of(links[k].value))
                prefetch(g);
        for (size_t k = w; k < end; ++k) {
            if (const uint32_t* g = granule_of(links[k].value)) {
                prefetch(&blocks_[std::min<size_t>(g[0], blocks_.size() - 1)]);
                if (g[1] > g[0] + 1)
                    prefetch(&blocks_[g[1] - 1]);
            }
        }
        // Stage 4: lookup, LIVE check, mark claim.
        for (size_t k = w; k < end; ++k) {
            const PendingLink& l = links[k];
            const size_t j = find_block(l.value);
            if (j == kNpos) {
                ++lane->dangling;
                lane->find({l.src, l.seq, l.value, l.type,
                            MarkFinding::kHitsNoBlock});
                continue;
            }
            BlockInfo& t = blocks_[j];
            if (NvHeap::meta_state(t.meta) != NvHeap::kBlockLive) {
                ++lane->dangling;
                lane->find({l.src, l.seq, l.value, l.type,
                            MarkFinding::kNonLive});
                continue;
            }
            // The plain load keeps already-marked targets (most links
            // in a dense structure) off the locked exchange.
            std::atomic_ref<uint8_t> m(t.marked);
            if (m.load(std::memory_order_relaxed) == 0
                && m.exchange(1, std::memory_order_relaxed) == 0)
                lane->next.push_back(static_cast<uint32_t>(j));
        }
    }
    lane->links.clear();
}

void
HeapGc::mark(GcStats* s)
{
    std::vector<uint32_t> frontier;
    auto mark_root = [&](uint64_t off, const char* what, const char* who) {
        const size_t i = find_block(off);
        if (i == kNpos) {
            ++s->dangling_links;
            note(s, std::string(what) + " " + who + " -> " + hex(off)
                        + " hits no block");
            return;
        }
        BlockInfo& b = blocks_[i];
        if (NvHeap::meta_state(b.meta) != NvHeap::kBlockLive) {
            ++s->dangling_links;
            note(s, std::string(what) + " " + who + " -> " + hex(off)
                        + " targets a non-LIVE block");
            return;
        }
        if (!b.marked) {
            b.marked = 1;
            frontier.push_back(static_cast<uint32_t>(i));
        }
    };

    // The compaction journal is allocator-internal: reachable by
    // definition (HeapState holds it), never a leak.
    const uint64_t journal = heap_.state()->compact_journal;
    if (journal != 0)
        mark_root(journal, "journal", "compact_journal");
    for (const auto& [slot, off] : RootRegistry::block_roots(heap_.heap_))
        mark_root(off, "root", RootRegistry::describe(slot).name);

    // Level-synchronous: every block of one level is traced before any
    // of the next, and each block is traced by whichever lane claims
    // its mark byte first.  The marked set, the dangling count and the
    // ordered findings do not depend on which lane that was, nor on
    // how the resolver batches and reorders a lane's links.
    std::vector<MarkLane> lanes(worker_count());
    std::vector<MarkLane>* fan = lanes.size() > 1 ? &lanes : nullptr;
    while (!frontier.empty()) {
        for (MarkLane& l : lanes)
            l.next.clear();
        if (fan == nullptr || frontier.size() < kParallelFrontier) {
            for (size_t k = 0; k < frontier.size(); k += kClaimBatch)
                trace_blocks(frontier.data() + k,
                             std::min(kClaimBatch, frontier.size() - k),
                             &lanes[0], fan);
        } else {
            parallel_ranges(frontier.size(), lanes.size(), kClaimBatch,
                            [&](size_t w, size_t begin, size_t end) {
                                trace_blocks(frontier.data() + begin,
                                             end - begin, &lanes[w],
                                             nullptr);
                            });
        }
        frontier.clear();
        for (const MarkLane& l : lanes)
            frontier.insert(frontier.end(), l.next.begin(), l.next.end());
    }

    std::vector<MarkFinding> found;
    for (const MarkLane& l : lanes) {
        s->dangling_links += l.dangling;
        found.insert(found.end(), l.findings.begin(), l.findings.end());
    }
    std::sort(found.begin(), found.end());
    for (const MarkFinding& f : found)
        note(s, f.render());
}

void
HeapGc::census(GcStats* s)
{
    PersistentHeap& ph = heap_.heap_;
    for (BlockInfo& b : blocks_) {
        ++s->blocks;
        s->bytes += b.size + sizeof(NvHeap::BlockHeader);
        const uint64_t st = NvHeap::meta_state(b.meta);
        if (st == NvHeap::kBlockFree || st == NvHeap::kBlockFreeing) {
            ++s->free_blocks;
            continue;
        }
        if (st == NvHeap::kBlockMoved) {
            ++s->moved_blocks;
            continue;
        }
        ++s->live_blocks;
        s->live_bytes += b.size + sizeof(NvHeap::BlockHeader);
        const TypeDescriptor* d = descriptor(b.meta);
        if (d == nullptr) {
            b.opaque = true;
            ++s->opaque_live;
        } else if (d->pins_relocation) {
            const uint64_t pub = published_off(b);
            if ((d->payload_size == 0
                 || pub + d->payload_size <= b.raw + b.size)
                && d->pins_relocation(ph, pub)) {
                b.pinned = true;
                ++s->pinned_blocks;
            }
        }
        if (!b.marked) {
            ++s->leaked_blocks;
            s->leaked_bytes += b.size + sizeof(NvHeap::BlockHeader);
            note(s, "leak: " + (d ? d->name : std::string("untyped"))
                        + " block "
                        + hex(b.raw) + " (" + std::to_string(b.size)
                        + "B) is LIVE but unreachable");
        }
    }
    s->chunks = chunks_.size();
}

void
HeapGc::reach(GcStats* s)
{
    uint64_t t = stat_now_ns();
    build_index();
    s->index_ns = stat_now_ns() - t;
    t = stat_now_ns();
    mark(s);
    s->mark_ns = stat_now_ns() - t;
    t = stat_now_ns();
    census(s);
    s->census_ns = stat_now_ns() - t;
}

GcStats
HeapGc::audit()
{
    GcStats s;
    reach(&s);
    return s;
}

GcStats
HeapGc::repair()
{
    GcStats s;
    reach(&s);
    if (s.leaked_blocks == 0)
        return s;
    // A reachable opaque block may hold the only path to a "leak";
    // reclaiming around it would free memory it still references.
    for (const BlockInfo& b : blocks_) {
        if (b.marked && b.opaque) {
            s.repair_refused = true;
            note(&s, "repair refused: reachable opaque block "
                         + hex(b.raw) + " may reference the leaks");
            return s;
        }
    }
    // Demote each unreachable LIVE block to the same states a crashed
    // free leaves behind, then let recover_leaks() -- the one proven
    // free-list writer -- relink them.  Oversize blocks are bump-only
    // and settle directly to FREE, exactly as free_block() would.
    const uint64_t cur_epoch = heap_.state()->epoch;
    for (const BlockInfo& b : blocks_) {
        if (NvHeap::meta_state(b.meta) != NvHeap::kBlockLive || b.marked)
            continue;
        const TypeId t = NvHeap::meta_type(b.meta);
        const bool aligned = NvHeap::meta_aligned(b.meta);
        const size_t cls = NvHeap::class_for_size(b.size);
        const bool exact = cls < NvHeap::kNumClasses
                           && NvHeap::class_payload(cls) == b.size;
        heap_.hook();
        if (exact) {
            // Stale-epoch FREEING is recover_leaks' reclaim trigger.
            heap_.set_meta(b.raw,
                           NvHeap::pack_meta(NvHeap::kBlockFreeing, 0,
                                             cur_epoch - 1, t, aligned),
                           dom_);
            heap_.cls_free_[cls].fetch_add(1, std::memory_order_relaxed);
        } else {
            heap_.set_meta(b.raw,
                           NvHeap::pack_meta(NvHeap::kBlockFree, 0,
                                             cur_epoch, t, aligned),
                           dom_);
            heap_.oversize_freed_blocks_.fetch_add(
                1, std::memory_order_relaxed);
            heap_.oversize_freed_bytes_.fetch_add(
                b.size + sizeof(NvHeap::BlockHeader),
                std::memory_order_relaxed);
        }
        ++s.reclaimed_blocks;
        s.reclaimed_bytes += b.size + sizeof(NvHeap::BlockHeader);
    }
    heap_.recover_leaks(dom_);
    return s;
}

uint64_t
HeapGc::ensure_journal()
{
    NvHeap::HeapState* st = heap_.state();
    if (st->compact_journal != 0) {
        journal_off_ = st->compact_journal;
        return journal_off_;
    }
    const size_t bytes = sizeof(uint64_t) * (1 + 2 * kJournalEntries);
    const uint64_t off = heap_.alloc(bytes, dom_, TypeId::kGcJournal);
    if (off == 0)
        return 0;
    PersistentHeap& ph = heap_.heap_;
    auto* count = ph.resolve<uint64_t>(off);
    dom_.store_val(count, uint64_t{0});
    dom_.flush(count, sizeof(uint64_t));
    dom_.fence();
    // Crash before the publish leaks a LIVE gc_journal block the next
    // repair reclaims (it is unreachable until this store lands).
    heap_.hook();
    dom_.store_val(&st->compact_journal, off);
    dom_.flush(&st->compact_journal, sizeof(uint64_t));
    dom_.fence();
    journal_off_ = off;
    return off;
}

void
HeapGc::rewrite_references()
{
    PersistentHeap& ph = heap_.heap_;
    const auto* j = ph.resolve<uint64_t>(journal_off_);
    const uint64_t count = j[0];
    if (count == 0)
        return;

    struct Move
    {
        uint64_t old_raw, old_end, old_pub, new_pub;
    };
    std::vector<Move> moves;
    moves.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
        const uint64_t old_raw = j[1 + 2 * i];
        const uint64_t new_raw = j[2 + 2 * i];
        const auto* oh = ph.resolve<NvHeap::BlockHeader>(
            old_raw - sizeof(NvHeap::BlockHeader));
        const bool aligned = NvHeap::meta_aligned(oh->meta);
        const uint64_t old_pub =
            aligned ? ((old_raw + 8 + 63) & ~uint64_t{63}) : old_raw;
        const uint64_t new_pub =
            aligned ? ((new_raw + 8 + 63) & ~uint64_t{63}) : new_raw;
        moves.push_back(Move{old_raw, old_raw + oh->size, old_pub, new_pub});
    }
    std::sort(moves.begin(), moves.end(),
              [](const Move& a, const Move& b) {
                  return a.old_raw < b.old_raw;
              });
    auto remap = [&](uint64_t v, uint64_t* out) {
        auto it = std::upper_bound(
            moves.begin(), moves.end(), v,
            [](uint64_t x, const Move& m) { return x < m.old_raw; });
        if (it == moves.begin())
            return false;
        const Move& m = *(it - 1);
        if (v < m.old_pub || v >= m.old_end)
            return false;
        *out = m.new_pub + (v - m.old_pub);
        return true;
    };

    // Every stored reference lives in a declared link field of a LIVE
    // typed block or in a root slot; rewrite each one that still
    // targets a journaled source extent.  Idempotent: a link already
    // rewritten no longer hits any extent.  Walks the heap itself
    // rather than rebuilding blocks_: compact() is still iterating the
    // index it marked from.
    types_ = TypeRegistry::instance().snapshot();
    std::vector<uint64_t> fields;
    bool dirty = false;
    heap_.for_each_block([&](uint64_t raw, uint64_t size, uint64_t meta) {
        if (NvHeap::meta_state(meta) != NvHeap::kBlockLive)
            return;
        fields.clear();
        collect_link_fields(BlockInfo{raw, size, meta, 0, false, false},
                            &fields);
        for (const uint64_t f : fields) {
            if (f + sizeof(uint64_t) > ph.size())
                continue;
            uint64_t* slot = ph.resolve<uint64_t>(f);
            uint64_t nv = 0;
            if (*slot != 0 && remap(*slot, &nv)) {
                dom_.store_val(slot, nv);
                dom_.flush(slot, sizeof(uint64_t));
                dirty = true;
            }
        }
    });
    if (dirty) {
        heap_.hook();
        dom_.fence();
    }
    for (const auto& [slot, off] : RootRegistry::block_roots(ph)) {
        uint64_t nv = 0;
        if (remap(off, &nv)) {
            heap_.hook();
            RootRegistry::set_ref(ph, slot, nv, dom_);
        }
    }
}

void
HeapGc::resolve_journal(GcStats* s)
{
    NvHeap::HeapState* st = heap_.state();
    if (st->compact_journal == 0)
        return;
    journal_off_ = st->compact_journal;
    PersistentHeap& ph = heap_.heap_;
    auto* j = ph.resolve<uint64_t>(journal_off_);
    const uint64_t count = dom_.load_val(&j[0]);
    if (count == 0)
        return;
    IDO_ASSERT(count <= kJournalEntries, "heap_gc: corrupt move journal");
    // Finish the interrupted protocol from where it stopped: every
    // journaled entry has a durable copy, so completing is always flip
    // source to MOVED, rewrite references, truncate -- each step
    // idempotent under repeated crashes.
    for (uint64_t i = 0; i < count; ++i) {
        const uint64_t old_raw = j[1 + 2 * i];
        const auto* oh = ph.resolve<NvHeap::BlockHeader>(
            old_raw - sizeof(NvHeap::BlockHeader));
        if (NvHeap::meta_state(oh->meta) == NvHeap::kBlockLive) {
            heap_.hook();
            heap_.set_meta(old_raw,
                           (oh->meta & ~uint64_t{0xffff})
                               | NvHeap::kBlockMoved,
                           dom_);
            const size_t cls = NvHeap::class_for_size(oh->size);
            if (cls < NvHeap::kNumClasses)
                heap_.cls_free_[cls].fetch_add(1,
                                               std::memory_order_relaxed);
        }
    }
    rewrite_references();
    heap_.hook();
    dom_.store_val(&j[0], uint64_t{0});
    dom_.flush(&j[0], sizeof(uint64_t));
    dom_.fence();
    s->journal_resolved = count;
}

void
HeapGc::purge_free_lists(const std::vector<uint64_t>& victims)
{
    if (victims.empty())
        return;
    PersistentHeap& ph = heap_.heap_;
    auto in_victim = [&](uint64_t off) {
        auto it = std::upper_bound(victims.begin(), victims.end(), off);
        if (it == victims.begin())
            return false;
        const uint64_t c = *(it - 1);
        return off > c && off < c + NvHeap::kChunkBytes;
    };
    NvHeap::HeapState* st = heap_.state();
    for (size_t sh = 0; sh < NvHeap::kNumShards; ++sh) {
        std::lock_guard<std::mutex> g(heap_.shard_mutexes_[sh]);
        for (size_t c = 0; c < NvHeap::kNumClasses; ++c) {
            uint64_t* slot = &st->shards[sh].heads[c];
            uint64_t cur = dom_.load_val(slot);
            while (cur != 0) {
                uint64_t* next_link = ph.resolve<uint64_t>(cur);
                const uint64_t nxt = dom_.load_val(next_link);
                if (in_victim(cur)) {
                    // Durable unlink; the entry becomes a stray FREE
                    // block recover_leaks would relink if its chunk
                    // survives (crash before the retire completes).
                    heap_.hook();
                    dom_.store_val(slot, nxt);
                    dom_.flush(slot, sizeof(uint64_t));
                    dom_.fence();
                } else {
                    slot = next_link;
                }
                cur = nxt;
            }
        }
    }
}

bool
HeapGc::relocate_one(const BlockInfo& b, uint64_t* journal_count)
{
    PersistentHeap& ph = heap_.heap_;
    const TypeId t = NvHeap::meta_type(b.meta);
    const bool aligned = NvHeap::meta_aligned(b.meta);
    if (aligned && b.size < 8 + 64 + 8)
        return true; // malformed; leave in place, census flagged it
    const uint64_t dst_raw =
        heap_.alloc_impl(b.size, dom_, t, aligned);
    if (dst_raw == 0)
        return false; // arena exhausted: stop relocating, keep census
    uint64_t src_pub = b.raw;
    uint64_t dst_pub = dst_raw;
    uint64_t len = b.size;
    if (aligned) {
        src_pub = published_off(b);
        dst_pub = (dst_raw + 8 + 63) & ~uint64_t{63};
        // alloc_aligned reserved 8 + 64 slack bytes, so the published
        // payload is at most size - 72 long and fits any block of the
        // class regardless of each copy's alignment skew.
        len = b.size - (8 + 64);
        auto* backptr = ph.resolve<uint64_t>(dst_pub - 8);
        dom_.store_val(backptr, dst_raw | 0x1);
        dom_.flush(backptr, sizeof(uint64_t));
    }
    // Move protocol, three durable steps the crash sweep can split
    // anywhere: (1) the copy -- source still canonical, the copy is an
    // unreachable duplicate a later repair collects; (2) the journal
    // entry + count -- the move is now committed, resolution completes
    // it; (3) the source flip to MOVED -- the copy is canonical.
    heap_.hook();
    dom_.store(ph.resolve<void>(dst_pub), ph.resolve<void>(src_pub), len);
    dom_.flush(ph.resolve<void>(dst_pub), len);
    dom_.fence();
    auto* j = ph.resolve<uint64_t>(journal_off_);
    heap_.hook();
    dom_.store_val(&j[1 + 2 * *journal_count], b.raw);
    dom_.store_val(&j[2 + 2 * *journal_count], dst_raw);
    dom_.flush(&j[1 + 2 * *journal_count], 2 * sizeof(uint64_t));
    dom_.fence();
    heap_.hook();
    dom_.store_val(&j[0], *journal_count + 1);
    dom_.flush(&j[0], sizeof(uint64_t));
    dom_.fence();
    heap_.hook();
    heap_.set_meta(b.raw,
                   (b.meta & ~uint64_t{0xffff}) | NvHeap::kBlockMoved,
                   dom_);
    // Counter balance: the destination bumped cls_alloc_; the carcass
    // counts as freed so the class live gauge stays flat across a move.
    const size_t cls = NvHeap::class_for_size(b.size);
    if (cls < NvHeap::kNumClasses)
        heap_.cls_free_[cls].fetch_add(1, std::memory_order_relaxed);
    ++*journal_count;
    return true;
}

void
HeapGc::retire_chunk(uint64_t chunk_off)
{
    PersistentHeap& ph = heap_.heap_;
    constexpr uint64_t kHdr = sizeof(NvHeap::BlockHeader);
    const uint64_t end = chunk_off + NvHeap::kChunkBytes;

    // Pass 1: zero every block's meta word.  Once a meta word is zero
    // the walk stops recognizing the block (and everything after it in
    // the chunk), so no partially-zeroed body is ever interpreted; the
    // size words are still intact, so a crash can never produce a
    // recognized header with a zero size.
    heap_.hook();
    uint64_t b = chunk_off + kHdr;
    while (b + kHdr <= end) {
        auto* bw = ph.resolve<uint64_t>(b);
        if (!arena::recognized(bw[1]))
            break;
        const uint64_t sz = bw[0];
        dom_.store_val(&bw[1], uint64_t{0});
        dom_.flush(&bw[1], sizeof(uint64_t));
        // The blocks leave the arena: retire their class accounting
        // (each non-LIVE block was counted alloc+free at seed/walk).
        const size_t cls = NvHeap::class_for_size(sz);
        if (cls < NvHeap::kNumClasses
            && NvHeap::class_payload(cls) == sz) {
            heap_.cls_alloc_[cls].fetch_sub(1, std::memory_order_relaxed);
            heap_.cls_free_[cls].fetch_sub(1, std::memory_order_relaxed);
        }
        if (sz == 0 || b + kHdr + sz > end)
            break;
        b += kHdr + sz;
    }
    dom_.fence();

    // Pass 2: zero the whole body so a reused chunk can never leak a
    // stale recognizable header into a future walk.
    heap_.hook();
    static const char zeros[1024] = {};
    for (uint64_t o = chunk_off + kHdr; o < end;) {
        const uint64_t n = std::min<uint64_t>(sizeof(zeros), end - o);
        dom_.store(ph.resolve<void>(o), zeros, n);
        dom_.flush(ph.resolve<void>(o), n);
        o += n;
    }
    dom_.fence();

    // Pass 3: link into the retired-chunk list (next pointer lives in
    // the first header slot's size word) and publish the new head.
    std::lock_guard<std::mutex> g(heap_.refill_mutex_);
    NvHeap::HeapState* st = heap_.state();
    uint64_t* link = ph.resolve<uint64_t>(chunk_off + kHdr);
    heap_.hook();
    dom_.store_val(link, dom_.load_val(&st->chunk_free));
    dom_.flush(link, sizeof(uint64_t));
    dom_.fence();
    heap_.hook();
    dom_.store_val(&st->chunk_free, chunk_off);
    dom_.flush(&st->chunk_free, sizeof(uint64_t));
    dom_.fence();
}

GcStats
HeapGc::compact()
{
    GcStats s;
    PersistentHeap& ph = heap_.heap_;

    // Quiesce the transient layer: parked frees become FREE+listed and
    // every thread's chunk cursor is abandoned, so nothing volatile
    // references a chunk this run might retire.
    heap_.flush_transient_caches(dom_);
    resolve_journal(&s);
    heap_.recover_leaks(dom_);

    reach(&s);

    if (s.pinned_blocks != 0 || s.opaque_live != 0) {
        // A pinned log record's register snapshot -- or any opaque
        // block's uninspectable interior -- may hold offsets we cannot
        // retarget.  Empty chunks still retire (no offset dies).
        s.relocation_refused = true;
        note(&s, "relocation refused: "
                     + std::to_string(s.pinned_blocks) + " pinned / "
                     + std::to_string(s.opaque_live)
                     + " opaque LIVE blocks");
    }

    // Chunks already parked on the retired list walk as empty but must
    // not be retired twice.
    std::vector<uint64_t> already_retired;
    {
        const NvHeap::HeapState* st = heap_.state();
        uint64_t c = st->chunk_free;
        while (c != 0) {
            already_retired.push_back(c);
            c = *ph.resolve<uint64_t>(c + sizeof(NvHeap::BlockHeader));
        }
        std::sort(already_retired.begin(), already_retired.end());
    }
    auto on_retired_list = [&](uint64_t off) {
        return std::binary_search(already_retired.begin(),
                                  already_retired.end(), off);
    };

    std::vector<uint64_t> retire_set; // empty now, zero+link at the end
    std::vector<size_t> move_chunks;  // indexes into chunks_
    for (size_t ci = 0; ci < chunks_.size(); ++ci) {
        const ChunkInfo& c = chunks_[ci];
        if (on_retired_list(c.off))
            continue;
        uint64_t live_bytes = 0;
        bool movable = true;
        for (size_t i = c.first_block; i < c.last_block; ++i) {
            const BlockInfo& b = blocks_[i];
            if (NvHeap::meta_state(b.meta) != NvHeap::kBlockLive)
                continue;
            live_bytes += b.size + sizeof(NvHeap::BlockHeader);
            if (b.opaque || b.pinned)
                movable = false;
        }
        if (live_bytes == 0)
            retire_set.push_back(c.off);
        else if (!s.relocation_refused && movable
                 && live_bytes * 100
                        <= NvHeap::kChunkBytes * kVictimLivePct)
            move_chunks.push_back(ci);
    }

    if (!move_chunks.empty() && ensure_journal() == 0) {
        note(&s, "no room for the move journal; relocation skipped");
        move_chunks.clear();
    }

    // Free-list entries inside any victim must be unlinked before the
    // chunk is emptied or reused as a relocation source: the zeroing
    // would otherwise tear a durable list, and the destination
    // allocator must never hand back a block we are about to retire.
    std::vector<uint64_t> victims = retire_set;
    for (const size_t ci : move_chunks)
        victims.push_back(chunks_[ci].off);
    std::sort(victims.begin(), victims.end());
    purge_free_lists(victims);

    uint64_t journal_count = 0;
    for (const size_t ci : move_chunks) {
        const ChunkInfo& c = chunks_[ci];
        bool emptied = true;
        for (size_t i = c.first_block; i < c.last_block; ++i) {
            const BlockInfo& b = blocks_[i];
            if (NvHeap::meta_state(b.meta) != NvHeap::kBlockLive)
                continue;
            if (journal_count == kJournalEntries) {
                rewrite_references();
                auto* j = ph.resolve<uint64_t>(journal_off_);
                heap_.hook();
                dom_.store_val(&j[0], uint64_t{0});
                dom_.flush(&j[0], sizeof(uint64_t));
                dom_.fence();
                journal_count = 0;
            }
            if (!relocate_one(b, &journal_count)) {
                emptied = false;
                note(&s, "arena exhausted mid-relocation; chunk "
                             + hex(c.off) + " kept");
                break;
            }
            ++s.relocated_blocks;
            s.relocated_bytes += b.size + sizeof(NvHeap::BlockHeader);
        }
        if (emptied)
            retire_set.push_back(c.off);
        else
            break; // exhausted: later chunks cannot do better
    }
    if (journal_count != 0) {
        rewrite_references();
        auto* j = ph.resolve<uint64_t>(journal_off_);
        heap_.hook();
        dom_.store_val(&j[0], uint64_t{0});
        dom_.flush(&j[0], sizeof(uint64_t));
        dom_.fence();
    }

    // Only now -- journal empty, every reference rewritten -- is it
    // safe to destroy the MOVED carcasses' headers.
    for (const uint64_t chunk : retire_set) {
        retire_chunk(chunk);
        ++s.chunks_retired;
    }
    return s;
}

void
HeapGc::publish(const GcStats& s)
{
    auto& reg = MetricsRegistry::instance();
    reg.add("heap.gc.runs", 1);
    reg.set("heap.gc.live_blocks", s.live_blocks);
    reg.set("heap.gc.live_bytes", s.live_bytes);
    reg.set("heap.gc.leaked_blocks", s.leaked_blocks);
    reg.set("heap.gc.leaked_bytes", s.leaked_bytes);
    reg.set("heap.gc.dangling_links", s.dangling_links);
    reg.set("heap.gc.opaque_live", s.opaque_live);
    reg.set("heap.gc.pinned_blocks", s.pinned_blocks);
    reg.set("heap.gc.moved_carcasses", s.moved_blocks);
    reg.add("heap.gc.reclaimed_blocks", s.reclaimed_blocks);
    reg.add("heap.gc.reclaimed_bytes", s.reclaimed_bytes);
    reg.add("heap.gc.relocated_blocks", s.relocated_blocks);
    reg.add("heap.gc.chunks_retired", s.chunks_retired);
}

} // namespace ido::nvm
