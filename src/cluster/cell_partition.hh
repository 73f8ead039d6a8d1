/**
 * @file
 * Partitioning a server fleet into scheduling cells.
 *
 * A cell is a set of server ids that one Platform instance owns
 * exclusively: its own CapacityIndex, event queue and metrics shard.
 * Cells are contiguous near-equal slices fixed for the whole run
 * (cells=1 covers exactly the flat cluster). Each cell numbers its
 * servers from 0. Each function has one fixed home cell, which receives
 * all of its traffic.
 */

#ifndef INFLESS_CLUSTER_CELL_PARTITION_HH
#define INFLESS_CLUSTER_CELL_PARTITION_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/rng.hh"

namespace infless::cluster {

/** Half-open server-id range [begin, end) owned by one cell. */
struct CellSlice
{
    std::size_t begin = 0;
    std::size_t end = 0;

    std::size_t size() const { return end - begin; }

    bool operator==(const CellSlice &o) const = default;
};

/**
 * Split @p num_servers into @p cells contiguous near-equal slices.
 *
 * The remainder of the floor division goes to the first slices, so sizes
 * differ by at most one and every server belongs to exactly one slice.
 *
 * Edge handling is explicit rather than left to caller discipline:
 *  - @p cells == 0 or @p num_servers == 0 throws std::invalid_argument
 *    (a partition with no cells, or cells with no placement targets,
 *    has no meaning).
 *  - @p cells > @p num_servers clamps to one server per cell: the
 *    caller gets num_servers single-server slices instead of empty
 *    cells. Callers that size per-cell state must use the returned
 *    vector's length, not the requested cell count.
 */
inline std::vector<CellSlice>
partitionServers(std::size_t num_servers, std::size_t cells)
{
    if (cells == 0)
        throw std::invalid_argument("partitionServers: cells must be > 0");
    if (num_servers == 0)
        throw std::invalid_argument("partitionServers: no servers");
    if (cells > num_servers)
        cells = num_servers;
    std::vector<CellSlice> slices(cells);
    std::size_t base = num_servers / cells;
    std::size_t extra = num_servers % cells;
    std::size_t at = 0;
    for (std::size_t c = 0; c < cells; ++c) {
        std::size_t len = base + (c < extra ? 1 : 0);
        slices[c] = CellSlice{at, at + len};
        at += len;
    }
    return slices;
}

/**
 * The home cell of function @p fn among @p cells: the top of its
 * rendezvous (highest-random-weight) order, in which cell c weighs
 * hashCombine(hashCombine(seed, fn), c); ties go to the lower index.
 * A pure function of (seed, fn, cells), so a function's home is stable
 * for a seed and independent of every other function. @p cells == 0
 * throws std::invalid_argument.
 */
inline std::size_t
homeCell(std::uint64_t seed, std::size_t fn, std::size_t cells)
{
    if (cells == 0)
        throw std::invalid_argument("homeCell: cells must be > 0");
    std::uint64_t fn_key = sim::hashCombine(seed, fn);
    std::size_t home = 0;
    std::uint64_t top = sim::hashCombine(fn_key, 0);
    for (std::size_t c = 1; c < cells; ++c) {
        std::uint64_t weight = sim::hashCombine(fn_key, c);
        if (weight > top) {
            top = weight;
            home = c;
        }
    }
    return home;
}

} // namespace infless::cluster

#endif // INFLESS_CLUSTER_CELL_PARTITION_HH
