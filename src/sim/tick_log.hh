/**
 * @file
 * Append-only tick log, delta-encoded in fixed chunks and freed as it is
 * read.
 *
 * Arrival feeds and the keep-alive idle-time log both hold long runs of
 * nearly sorted ticks that are only ever read front to back. Stored as
 * LEB128 varints of the gap to the previous tick, a dense stream costs
 * 1-3 bytes per tick instead of 8, and a chunk goes back to the heap as
 * soon as every reader has passed it.
 */

#ifndef INFLESS_SIM_TICK_LOG_HH
#define INFLESS_SIM_TICK_LOG_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/time.hh"

namespace infless::sim {

/**
 * A log of (tick, tag) records read by a fixed set of forward-only
 * cursors.
 *
 * Each record is the varint of its tick's distance from the previous
 * record's tick, followed in a tagged log by a varint tag. An untagged
 * log takes non-decreasing ticks only; a tagged log folds a backwards
 * step into the tag's low bit, so its ticks may go back. Records never
 * straddle a chunk. A chunk every cursor has read past is freed, and once
 * every cursor has read everything the log holds no chunk at all.
 */
class TickLog
{
  public:
    /** Bytes per chunk, its header included. */
    static constexpr std::size_t kChunkBytes = 4096;

    struct Record
    {
        Tick tick = 0;
        std::uint32_t tag = 0;
    };

    /**
     * @param cursors Number of independent readers, addressed 0..n-1.
     * @param tagged Whether every record carries a tag (and may step
     *        back in time).
     */
    explicit TickLog(std::size_t cursors = 1, bool tagged = false);

    /**
     * Append a record. Panics when an untagged log's @p tick precedes the
     * previous one, or when an untagged log is given a nonzero @p tag.
     */
    void push(Tick tick, std::uint32_t tag = 0);

    /** push() each of @p ticks, in order, into an untagged log. */
    void append(std::span<const Tick> ticks);

    /** Whether cursor @p c has read every record pushed so far. */
    bool done(std::size_t c) const
    {
        return cursors_[c].read == pushed_;
    }

    /** Cursor @p c's next record, left unread. Requires !done(c). */
    Record peek(std::size_t c) const
    {
        Cursor next = cursors_[c];
        return decode(next);
    }

    /** Read and return cursor @p c's next record. Requires !done(c). */
    Record take(std::size_t c);

    /** Records pushed that cursor @p c has not read yet. */
    std::uint64_t unread(std::size_t c) const
    {
        return pushed_ - cursors_[c].read;
    }

    /** Bytes of chunk storage currently held. */
    std::size_t heldBytes() const { return chunks_.size() * kChunkBytes; }

  private:
    static constexpr std::size_t kPayload =
        kChunkBytes - sizeof(std::uint32_t);

    struct Chunk
    {
        /** Payload bytes written so far. */
        std::uint32_t used = 0;
        std::uint8_t bytes[kPayload];
    };

    struct Cursor
    {
        /** Chunk of the next record, counted from the log's first. */
        std::uint64_t chunk = 0;
        std::uint32_t offset = 0;
        /** Tick of the last record read: the next delta's base. */
        Tick last = 0;
        std::uint64_t read = 0;
    };

    /** The last chunk, or a new one when it has under @p bytes free. */
    Chunk &tailWithRoom(std::size_t bytes);
    /** Decode the record at @p at and advance @p at past it. */
    Record decode(Cursor &at) const;
    /** Free the chunks every cursor has read past. */
    void release();

    /** Live chunks; chunks_[i] is chunk number base_ + i. */
    std::vector<std::unique_ptr<Chunk>> chunks_;
    std::uint64_t base_ = 0;
    std::vector<Cursor> cursors_;
    Tick last_ = 0;
    std::uint64_t pushed_ = 0;
    bool tagged_;
};

} // namespace infless::sim

#endif // INFLESS_SIM_TICK_LOG_HH
