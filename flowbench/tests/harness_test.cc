// Self-tests of the flowbench measurement harness: the percentile
// sample-count rule, geomean and ok-fraction arithmetic, the pacing input
// buffer's release times and the output buffer's per-line timestamps.
//
//   flowbench_selftest     (exit 0: all passed; 1: a check failed)
#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

namespace {

using namespace flowbench;

int failures = 0;

void expect(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "FAILED: %s\n", what);
  ++failures;
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentile_needs_ten_samples_beyond() {
  // p50 of 19: rank 10, 9 samples beyond -> not reported.
  expect(!percentile(one_to(19), 0.5), "p50 of 19 samples is withheld");
  // p50 of 20: rank 10, 10 beyond -> the 10th smallest.
  const auto p50 = percentile(one_to(20), 0.5);
  expect(p50 && *p50 == 10.0, "p50 of 20 samples is the 10th smallest");
  expect(!percentile(one_to(99), 0.9), "p90 of 99 samples is withheld");
  const auto p90 = percentile(one_to(100), 0.9);
  expect(p90 && *p90 == 90.0, "p90 of 100 samples is the 90th smallest");
  expect(!percentile({}, 0.5), "no percentile of an empty set");
  expect(quantile(one_to(7), 0.9) == 7.0, "nearest-rank quantile");
  expect(median(one_to(5)) == 3.0, "median of 5");
}

void geomean_and_ok_fraction() {
  expect(std::fabs(geomean({1.0, 4.0, 16.0}) - 4.0) < 1e-12,
         "geomean(1, 4, 16) = 4");
  expect(std::fabs(geomean({2.5}) - 2.5) < 1e-12, "geomean of one value");
  bool threw = false;
  try {
    geomean({1.0, 0.0});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "geomean rejects a zero sample");
  expect(ok_fraction(3, 4) == 0.75, "ok_fraction(3, 4) = 0.75");
  expect(ok_fraction(4, 4) == 1.0, "ok_fraction(4, 4) = 1");
  threw = false;
  try {
    ok_fraction(1, 0);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "ok_fraction rejects zero attempts");
}

void pacing_releases_lines_at_due_times() {
  std::vector<std::string> lines;
  std::vector<double> due;
  for (int i = 0; i < 12; ++i) {
    lines.push_back("line " + std::to_string(i));
    due.push_back(15.0 * i);
  }
  PacedLineBuf buf(lines, due);
  std::istream in(&buf);
  const Clock::time_point origin = Clock::now();
  buf.start(origin);
  std::vector<Clock::time_point> got;
  std::string line;
  int n = 0;
  while (std::getline(in, line)) {
    got.push_back(Clock::now());
    expect(line == lines[static_cast<std::size_t>(n)], "lines in order");
    ++n;
  }
  expect(n == 12, "every line read, then EOF");
  const double late = buf.generator_late_ms_max();
  // Loose on purpose: a sleep can overshoot on a loaded host, but a
  // pacing bug (a line held back a whole period or more) would not.
  expect(late < 100.0, "generator lateness stays under 100 ms");
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double released = ms_between(buf.due(i), buf.release_time(i));
    expect(released >= 0.0, "no line released before it is due");
    expect(released <= late + 1e-9,
           "every release is within bench.gen_late_ms_max of due");
    expect(ms_between(buf.due(i), got[i]) >= 0.0,
           "the reader never sees a line early");
  }

  // A slow reader: lines wait for it (read lag), and that waiting is not
  // generator lateness.
  PacedLineBuf slow(std::vector<std::string>{"a", "b", "c"},
                    std::vector<double>{0.0, 0.0, 0.0});
  std::istream slow_in(&slow);
  slow.start(Clock::now());
  while (std::getline(slow_in, line))
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  expect(slow.read_lag_ms(2) >= 35.0, "a slow reader accrues read lag");
  expect(slow.generator_late_ms_max() == 0.0,
         "read lag is not generator lateness");
}

void stamps_one_time_per_response_line() {
  LineStampBuf buf;
  std::ostream out(&buf);
  // Writes from two threads (one after the other, as the server orders
  // them), lines written in pieces and several lines in one write.
  std::thread other([&] {
    for (int i = 0; i < 50; ++i) {
      out.write("x-", 2);
      out.flush();
    }
  });
  other.join();
  out << "first\n";  // completes the line the other thread started
  out << "second\nthird\n";
  out << "fou";
  out << "rth" << '\n';
  out.flush();
  const std::vector<std::string> lines = buf.lines();
  const std::vector<Clock::time_point> stamps = buf.stamps();
  expect(lines.size() == 4, "four complete lines");
  expect(stamps.size() == lines.size(), "one stamp per line");
  expect(lines.size() == 4 && lines[1] == "second" && lines[3] == "fourth",
         "line contents preserved");
  expect(lines.size() == 4 && lines[0].size() == 100 + 5,
         "a line written in pieces is one line");
  for (std::size_t i = 1; i < stamps.size(); ++i)
    expect(stamps[i - 1] <= stamps[i], "stamps in write order");
}

}  // namespace

int main() {
  percentile_needs_ten_samples_beyond();
  geomean_and_ok_fraction();
  pacing_releases_lines_at_due_times();
  stamps_one_time_per_response_line();
  if (failures > 0) {
    std::fprintf(stderr, "flowbench_selftest: %d check(s) failed\n",
                 failures);
    return 1;
  }
  std::printf("flowbench_selftest: all checks passed\n");
  return 0;
}
