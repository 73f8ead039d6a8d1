/**
 * @file
 * Unit check of the benchmark's run checker: a balanced run passes, and
 * each fabricated defect (a leaked request, a lost arrival, a truncated
 * engine, an unbalanced cell) is reported.
 */

#include <iostream>

#include "checks.hh"

namespace {

using infless::benchmark::checkRun;
using infless::benchmark::RunFacts;

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::cerr << "FAIL: " << what << "\n";
        ++failures;
    }
}

RunFacts
balanced()
{
    RunFacts f;
    f.injected = 1000;
    f.arrivals = 1000;
    f.completions = 950;
    f.drops = 40;
    f.inFlight = 10;
    return f;
}

} // namespace

int
main()
{
    expect(checkRun(balanced()).empty(), "a balanced run passes");

    RunFacts leak = balanced();
    leak.completions -= 1; // one request vanished
    expect(checkRun(leak).size() == 1, "conservation mismatch is reported");

    RunFacts lost = balanced();
    lost.injected += 3;
    expect(checkRun(lost).size() == 1, "lost arrivals are reported");

    RunFacts truncated = balanced();
    truncated.truncated = true;
    expect(!checkRun(truncated).empty(), "truncation is reported");

    RunFacts cell = balanced();
    cell.cellsBalanced = false;
    expect(!checkRun(cell).empty(), "an unbalanced cell is reported");

    if (failures == 0)
        std::cout << "checks_test: ok\n";
    return failures == 0 ? 0 : 1;
}
