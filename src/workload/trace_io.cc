#include "workload/trace_io.hh"

#include <cmath>
#include <fstream>
#include <sstream>
#include <vector>

#include "sim/logging.hh"

namespace infless::workload {

namespace {

std::vector<std::string>
splitCsvRow(const std::string &line)
{
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream row(line);
    while (std::getline(row, cell, ','))
        cells.push_back(cell);
    return cells;
}

} // namespace

TraceSet
readAzureCsv(std::istream &is)
{
    TraceSet traces;
    std::string line;
    if (!std::getline(is, line))
        return traces; // empty input -> empty set
    std::size_t columns = splitCsvRow(line).size();
    if (columns < 2)
        sim::fatal("trace header needs a function column plus minutes");

    std::size_t row_number = 1;
    while (std::getline(is, line)) {
        ++row_number;
        if (line.empty())
            continue;
        auto cells = splitCsvRow(line);
        if (cells.size() != columns) {
            sim::fatal("ragged trace row ", row_number, ": expected ",
                       columns, " cells, got ", cells.size());
        }
        RateSeries series;
        series.binWidth = sim::kTicksPerMin;
        series.rps.reserve(cells.size() - 1);
        for (std::size_t i = 1; i < cells.size(); ++i) {
            try {
                std::size_t used = 0;
                double count = std::stod(cells[i], &used);
                if (used != cells[i].size() || !std::isfinite(count) ||
                    count < 0.0)
                    throw std::invalid_argument(cells[i]);
                series.rps.push_back(count / 60.0);
            } catch (const std::exception &) {
                sim::fatal("bad invocation count '", cells[i], "' in row ",
                           row_number);
            }
        }
        if (!traces.emplace(cells[0], std::move(series)).second) {
            sim::fatal("duplicate function '", cells[0], "' in row ",
                       row_number);
        }
    }
    return traces;
}

TraceSet
readAzureCsv(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        sim::fatal("cannot open trace file: ", path);
    return readAzureCsv(is);
}

} // namespace infless::workload
