/**
 * @file
 * Append-only tick log, delta-encoded in fixed chunks and freed as it is
 * read.
 *
 * Arrival feeds and the keep-alive idle-time log both hold long runs of
 * sorted ticks that are only ever read front to back. Stored as LEB128
 * varints of the gap to the previous tick, a dense stream costs 1-3
 * bytes per tick instead of 8, and a chunk goes back to the heap as soon
 * as every reader has passed it.
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
 * A log of non-decreasing ticks read by a fixed set of forward-only
 * cursors.
 *
 * Each tick is stored as the varint of its distance from the previous
 * one, and never straddles a chunk. A chunk every cursor has read past is
 * freed, and once every cursor has read everything the log holds no
 * chunk at all.
 */
class TickLog
{
  public:
    /** Bytes per chunk, its header included. */
    static constexpr std::size_t kChunkBytes = 4096;

    /** @param cursors Number of independent readers, addressed 0..n-1. */
    explicit TickLog(std::size_t cursors = 1);

    /** Append @p tick. Panics when it precedes the previous tick. */
    void push(Tick tick);

    /** push() each of @p ticks, in order. */
    void append(std::span<const Tick> ticks);

    /** Whether cursor @p c has read every tick pushed so far. */
    bool done(std::size_t c) const
    {
        return cursors_[c].read == pushed_;
    }

    /** Cursor @p c's next tick, left unread. Requires !done(c). */
    Tick peek(std::size_t c) const
    {
        Cursor next = cursors_[c];
        return decode(next);
    }

    /** Read and return cursor @p c's next tick. Requires !done(c). */
    Tick take(std::size_t c);

    /** Ticks pushed that cursor @p c has not read yet. */
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
        /** Chunk of the next tick, counted from the log's first. */
        std::uint64_t chunk = 0;
        std::uint32_t offset = 0;
        /** The last tick read: the next delta's base. */
        Tick last = 0;
        std::uint64_t read = 0;
    };

    /** The last chunk, or a new one when it has under @p bytes free. */
    Chunk &tailWithRoom(std::size_t bytes);
    /** Decode the tick at @p at and advance @p at past it. */
    Tick decode(Cursor &at) const;
    /** Free the chunks every cursor has read past. */
    void release();

    /** Live chunks; chunks_[i] is chunk number base_ + i. */
    std::vector<std::unique_ptr<Chunk>> chunks_;
    std::uint64_t base_ = 0;
    std::vector<Cursor> cursors_;
    Tick last_ = 0;
    std::uint64_t pushed_ = 0;
};

} // namespace infless::sim

#endif // INFLESS_SIM_TICK_LOG_HH
