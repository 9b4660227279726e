/**
 * @file
 * HeapGc: root-reachability mark/sweep and crash-consistent slab
 * compaction for NvHeap v2.
 *
 * The typed root layer (root_registry.h) made reachability decidable
 * from metadata alone: every durable root declares what it holds,
 * every block header carries a 7-bit TypeId, and every described type
 * publishes its link-field map.  HeapGc is the consumer of that
 * metadata -- three entry points layered on one mark phase:
 *
 *  - audit():   read-only census.  Marks from RootRegistry::block_roots,
 *               traces through TypeDescriptors, and reports every LIVE
 *               block no root can reach (a leak), every link field
 *               whose target is not a block (dangling), every opaque
 *               (untyped / undescribed) survivor, and every block
 *               currently pinning the heap against relocation.
 *  - repair():  audit + reclamation.  Unreachable LIVE blocks are
 *               durably demoted to the FREEING state with a stale epoch
 *               tag and handed to NvHeap::recover_leaks(), which owns
 *               the (already crash-proven) relink protocol -- the GC
 *               never grows a second free-list writer.  A crash at any
 *               point leaves strays the next attach reclaims.  Refuses
 *               to reclaim anything while an opaque block is reachable
 *               (its unseen interior could be the only path to a
 *               "leak").
 *  - compact(): journal-based relocation plus chunk retirement.  Live
 *               blocks are copied out of sparse chunks, every move
 *               recorded in a persistent journal *before* the source
 *               header flips to kBlockMoved, then all stored links and
 *               roots are rewritten and the emptied chunks are zeroed
 *               and pushed on the retired-chunk list refill_chunk()
 *               reuses.  Every step is fenced and hook()ed, so the
 *               fuse-point crash sweep can kill it anywhere: an
 *               interrupted compaction is finished (or harmlessly
 *               discarded) by the journal-resolution prologue of the
 *               next GC.  Relocation is refused -- but fully-empty
 *               chunks are still retired -- while any pinning block
 *               (interrupted-FASE log record) or any opaque LIVE block
 *               exists, since their interiors may hold offsets the GC
 *               cannot retarget.
 *
 * Cost model (DESIGN.md section 13): one header walk (ArenaWalk, or
 * the one a crash attach already ran; see adopt_index) builds a block
 * index sorted by offset plus a coarse granule table over it, so
 * resolving a link (interior pointers included) is one table read and
 * a scan of the few blocks that start in the granule -- the mark is
 * O(blocks + links).  The mark runs level by level from the roots;
 * a level with at least kParallelFrontier blocks is traced by
 * hardware_concurrency() threads claiming blocks with one atomic mark
 * byte each, smaller levels stay on the calling thread.  Each link is
 * a chain of dependent cache misses (field, granule entry, index
 * entry), so links are resolved in batches, each stage prefetching
 * what the next one reads.  Findings are ordered by the offset of the
 * block holding the bad link, not by discovery, so the report is
 * identical whatever the schedule.
 *
 * Concurrency contract: quiescent callers only (no mutator threads
 * between construction and the call's return).  Transient caches are
 * flushed and chunk cursors abandoned up front, so no thread-local
 * state can reference a chunk the GC retires.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "nvm/nv_heap.h"

namespace ido::nvm {

/** One GC run's census and actions, for tools/tests/recovery. */
struct GcStats
{
    // Census (every run).
    uint64_t blocks = 0;        ///< all walked blocks
    uint64_t bytes = 0;         ///< header+payload bytes walked
    uint64_t live_blocks = 0;
    uint64_t live_bytes = 0;
    uint64_t free_blocks = 0;   ///< FREE or FREEING
    uint64_t moved_blocks = 0;  ///< relocation carcasses awaiting retire
    uint64_t chunks = 0;        ///< chunks currently carved from the arena

    // Reachability findings.
    uint64_t leaked_blocks = 0; ///< LIVE but unreachable from any root
    uint64_t leaked_bytes = 0;
    uint64_t dangling_links = 0; ///< link fields targeting no block
    uint64_t opaque_live = 0;    ///< LIVE untyped/undescribed blocks
    uint64_t pinned_blocks = 0;  ///< blocks vetoing relocation

    // Actions (repair / compact only).
    uint64_t reclaimed_blocks = 0;
    uint64_t reclaimed_bytes = 0;
    uint64_t relocated_blocks = 0;
    uint64_t relocated_bytes = 0;
    uint64_t chunks_retired = 0;
    uint64_t journal_resolved = 0; ///< prior interrupted moves completed
    bool repair_refused = false;   ///< opaque reachable block blocked reclaim
    bool relocation_refused = false; ///< pin/opaque blocked relocation

    // Wall time of the run's reachability phases (not part of the
    // census: two audits of one heap agree on everything else).
    uint64_t index_ns = 0;  ///< header walk + granule index
    uint64_t mark_ns = 0;   ///< root-to-leaf trace
    uint64_t census_ns = 0; ///< per-block classification

    /** Human-readable issue lines (capped; see kMaxFindings). */
    std::vector<std::string> findings;

    /** Render as one JSON object (tools/ido_heap --json, CI artifact). */
    std::string to_json() const;
};

class HeapGc
{
  public:
    static constexpr size_t kMaxFindings = 32;
    /** Relocations recorded per journal round (journal block size). */
    static constexpr size_t kJournalEntries = 512;
    /** A chunk is a relocation victim when its live payloads cover at
     *  most this fraction (in percent) of the chunk. */
    static constexpr uint64_t kVictimLivePct = 50;
    /** Smallest mark level (blocks reached by the previous level), or
     *  link table of one block, that is traced on
     *  hardware_concurrency() threads.  Below it the work costs less
     *  than spawning the threads, so heaps of a few ten thousand
     *  blocks -- and every long linked list, whose levels are one block
     *  wide -- are marked on the calling thread alone. */
    static constexpr size_t kParallelFrontier = 32768;
    HeapGc(NvHeap& heap, PersistDomain& dom);

    /**
     * Let the next run's index be `index` instead of a header walk.  It
     * must describe the heap exactly as it stands -- the index a crash
     * attach leaves in NvHeap::AttachReclaim does, until anything
     * allocates, frees or reclaims.
     */
    void adopt_index(HeapIndex index);

    /** Read-only reachability census; never writes the heap. */
    GcStats audit();

    /** Census + reclaim unreachable LIVE blocks through the existing
     *  recover_leaks protocol.  No-op (repair_refused) while any
     *  opaque block is reachable. */
    GcStats repair();

    /** Resolve any interrupted prior compaction, relocate live blocks
     *  out of sparse chunks under the persistent move journal, rewrite
     *  all links/roots, and retire emptied chunks onto the reuse
     *  list.  Also reports the census it marked from. */
    GcStats compact();

    /** Publish a run's results as heap.gc.* metrics (counters set to
     *  the latest census, cumulative action totals added). */
    static void publish(const GcStats& s);

    /** Raw payload offset of the block whose payload holds `off` in
     *  the index the last run built, or 0 if `off` hits no block (a
     *  header, unused arena, past bump).  The mark's link lookup. */
    uint64_t block_containing(uint64_t off) const;

    /** Raw payload offsets of every block the last run's mark reached,
     *  ascending. */
    std::vector<uint64_t> marked_blocks() const;

  private:
    /** Everything the mark phase learns about one block. */
    using BlockInfo = IndexedBlock;
    using ChunkInfo = IndexedChunk;

    struct MarkLane;

    uint64_t published_off(const BlockInfo& b) const;
    size_t find_block(uint64_t off) const; ///< npos if off hits no block
    void note(GcStats* s, std::string line) const;

    /** Descriptor of a block's type from this run's snapshot, or
     *  nullptr for untyped / undescribed (opaque) blocks. */
    const TypeDescriptor*
    descriptor(uint64_t meta) const
    {
        return types_[static_cast<size_t>(NvHeap::meta_type(meta))];
    }

    /** Append every link-field heap offset of a described LIVE block. */
    void collect_link_fields(const BlockInfo& b,
                             std::vector<uint64_t>* out) const;

    void build_index();
    void build_granules();
    void mark(GcStats* s);
    /** &granule_first_[g] for the granule holding off, or nullptr if
     *  off lies outside the indexed span. */
    const uint32_t* granule_of(uint64_t off) const;
    /**
     * The mark's one link resolver.  Traces the marked blocks ids[0..n)
     * (one claimed frontier batch) into lane in stages: prefetch their
     * index entries, then their link fields; load the links into the
     * lane buffer; resolve_links.  A block with more than a batch of
     * link fields is traced by trace_fields a batch at a time, split
     * over `fan` from kParallelFrontier fields up (nullptr: already
     * inside a parallel level).
     */
    void trace_blocks(const uint32_t* ids, size_t n, MarkLane* lane,
                      std::vector<MarkLane>* fan);
    /** Prefetch, load and resolve link fields [begin, end) of block
     *  src (one batch of a wide link table). */
    void trace_fields(uint64_t src, const TypeDescriptor* d,
                      const std::vector<uint64_t>& fields, size_t begin,
                      size_t end, MarkLane* lane);
    /** Load one link field into the lane buffer; seq orders findings. */
    void load_link(uint64_t src, const TypeDescriptor* d, uint64_t field,
                   uint64_t seq, MarkLane* lane);
    /** Resolve and empty the lane buffer a window at a time: prefetch
     *  the targets' granule entries, then their index entries, then
     *  look up, check LIVE and claim each target's mark byte. */
    void resolve_links(MarkLane* lane);
    void census(GcStats* s);
    /** build_index + mark + census, each timed into s. */
    void reach(GcStats* s);

    /** Complete an interrupted prior compaction: flip journaled
     *  sources to MOVED, rewrite links, truncate the journal. */
    void resolve_journal(GcStats* s);

    /** Rewrite every stored link and root that targets a journaled
     *  source extent to its copy.  Idempotent. */
    void rewrite_references();

    /** Durably ensure the journal block exists; 0 if arena exhausted. */
    uint64_t ensure_journal();

    /** Unlink every free-list entry that lives inside one of the
     *  victim chunks (sorted chunk offsets); the entries become
     *  recoverable strays until their chunk is zeroed. */
    void purge_free_lists(const std::vector<uint64_t>& victims);

    /** Zero a victim chunk and push it on the retired-chunk list. */
    void retire_chunk(uint64_t chunk_off);

    bool relocate_one(const BlockInfo& b, uint64_t* journal_count);

    NvHeap& heap_;
    PersistDomain& dom_;
    uint64_t journal_off_ = 0; ///< cached HeapState.compact_journal

    std::optional<HeapIndex> adopted_; ///< see adopt_index()
    IndexedBlocks blocks_; ///< sorted by raw offset
    std::vector<ChunkInfo> chunks_;
    TypeRegistry::Snapshot types_{}; ///< taken by build_index

    // Granule index over blocks_: granule g covers heap offsets
    // [granule_base_ + (g << granule_shift_), ... + (1 << shift)), and
    // granule_first_[g] counts the blocks whose raw offset lies before
    // it, so the blocks starting inside granule g are
    // blocks_[granule_first_[g] .. granule_first_[g + 1]).  Granules
    // are sized to hold two to four blocks, so a lookup reads one or
    // two cache lines of blocks_ and the table costs at most two bytes
    // per block.
    std::vector<uint32_t> granule_first_;
    uint64_t granule_base_ = 0;
    uint64_t granule_limit_ = 0; ///< end of the last block's payload
    unsigned granule_shift_ = 0;
};

} // namespace ido::nvm
