// Measurement helpers shared by every flowbench workload: summary
// statistics with an explicit sample-count rule, and the two stream
// buffers that put an open-loop clock around nanomap's JSON-lines server.
//
// The server (serve_jobs) reads job lines from a std::istream and writes
// response lines to a std::ostream. PacedLineBuf releases one job line per
// read at the line's due time, so the server sees an open-loop arrival
// process; LineStampBuf records the instant each response line is
// complete. Together they time a served job from when it was due to when
// its response was written, without touching the server.
#pragma once

#include <chrono>
#include <mutex>
#include <optional>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

namespace flowbench {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to);

// A percentile is reported only when at least this many samples lie
// strictly beyond it, so a tail figure never rests on a handful of jobs.
constexpr int kMinSamplesBeyond = 10;

// Nearest-rank percentile (q in (0, 1]) of `samples`, or nullopt when
// fewer than kMinSamplesBeyond samples lie beyond its rank.
std::optional<double> percentile(std::vector<double> samples, double q);

// Nearest-rank q-quantile with no sample-count rule; 0 for an empty set.
double quantile(std::vector<double> samples, double q);

inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

// Geometric mean of strictly positive samples; 0 for an empty set.
// Throws std::invalid_argument on a non-positive sample.
double geomean(const std::vector<double>& samples);

// Jobs that were feasible and passed their output check, over jobs
// attempted. Throws std::invalid_argument when attempted < 1 or
// ok is outside [0, attempted].
double ok_fraction(long ok, long attempted);

// Input side of the open loop. Holds job lines (without newlines) and
// their due offsets from start(); each underflow() hands the reader the
// next line, sleeping until it is due when the reader asks early. Records
// when the reader asked for each line and when the line was released.
class PacedLineBuf : public std::streambuf {
 public:
  PacedLineBuf(std::vector<std::string> lines, std::vector<double> due_ms);
  PacedLineBuf(const PacedLineBuf&) = delete;
  PacedLineBuf& operator=(const PacedLineBuf&) = delete;

  // Sets the clock origin of the due offsets. Must precede the first read.
  void start(Clock::time_point origin);

  // Lines handed to the reader so far.
  std::size_t released() const { return next_; }
  Clock::time_point due(std::size_t i) const;
  Clock::time_point release_time(std::size_t i) const { return release_[i]; }
  // Release minus due: how long line i sat readable before the reader
  // took it (never negative).
  double read_lag_ms(std::size_t i) const;
  // Worst lateness of the generator itself: over lines the reader asked
  // for before they were due, the largest release minus due. A valid
  // open-loop run keeps this small next to the job times it reports.
  double generator_late_ms_max() const;

 protected:
  int_type underflow() override;

 private:
  std::vector<std::string> lines_;
  std::vector<double> due_ms_;
  Clock::time_point origin_{};
  bool started_ = false;
  std::size_t next_ = 0;
  std::string current_;
  std::vector<Clock::time_point> request_;
  std::vector<Clock::time_point> release_;
};

// Output side: collects complete lines and stamps each with the instant
// its newline was written. Safe for writers on several threads.
class LineStampBuf : public std::streambuf {
 public:
  LineStampBuf() = default;
  LineStampBuf(const LineStampBuf&) = delete;
  LineStampBuf& operator=(const LineStampBuf&) = delete;

  // Copies; call after the writers have finished.
  std::vector<std::string> lines() const;
  std::vector<Clock::time_point> stamps() const;

 protected:
  int_type overflow(int_type ch) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  void append(const char* s, std::size_t n);

  mutable std::mutex mu_;
  std::string partial_;
  std::vector<std::string> lines_;
  std::vector<Clock::time_point> stamps_;
};

}  // namespace flowbench
