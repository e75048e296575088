#include "harness.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

namespace flowbench {

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

namespace {

// 0-based index of the nearest-rank q-quantile in a sorted set of n.
std::size_t rank_index(std::size_t n, double q) {
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return rank - 1;
}

}  // namespace

std::optional<double> percentile(std::vector<double> samples, double q) {
  if (samples.empty() || !(q > 0.0 && q <= 1.0)) return std::nullopt;
  const std::size_t idx = rank_index(samples.size(), q);
  const std::size_t beyond = samples.size() - 1 - idx;
  if (beyond < static_cast<std::size_t>(kMinSamplesBeyond))
    return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t idx = rank_index(samples.size(), q);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

double geomean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : samples) {
    if (!(v > 0.0))
      throw std::invalid_argument("geomean of a non-positive sample");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(samples.size()));
}

double ok_fraction(long ok, long attempted) {
  if (attempted < 1 || ok < 0 || ok > attempted)
    throw std::invalid_argument("ok_fraction needs 0 <= ok <= attempted, "
                                "attempted >= 1");
  return static_cast<double>(ok) / static_cast<double>(attempted);
}

// --- PacedLineBuf ------------------------------------------------------------

PacedLineBuf::PacedLineBuf(std::vector<std::string> lines,
                           std::vector<double> due_ms)
    : lines_(std::move(lines)), due_ms_(std::move(due_ms)) {
  if (lines_.size() != due_ms_.size())
    throw std::invalid_argument("PacedLineBuf: one due time per line");
  request_.resize(lines_.size());
  release_.resize(lines_.size());
}

void PacedLineBuf::start(Clock::time_point origin) {
  origin_ = origin;
  started_ = true;
}

Clock::time_point PacedLineBuf::due(std::size_t i) const {
  return origin_ + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(due_ms_[i]));
}

double PacedLineBuf::read_lag_ms(std::size_t i) const {
  return std::max(0.0, ms_between(due(i), release_[i]));
}

double PacedLineBuf::generator_late_ms_max() const {
  double worst = 0.0;
  for (std::size_t i = 0; i < next_; ++i)
    if (request_[i] < due(i))
      worst = std::max(worst, ms_between(due(i), release_[i]));
  return worst;
}

PacedLineBuf::int_type PacedLineBuf::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  if (!started_) throw std::logic_error("PacedLineBuf read before start()");
  if (next_ >= lines_.size()) return traits_type::eof();
  const std::size_t i = next_++;
  request_[i] = Clock::now();
  const Clock::time_point when = due(i);
  if (request_[i] < when) std::this_thread::sleep_until(when);
  release_[i] = Clock::now();
  current_ = lines_[i];
  current_ += '\n';
  setg(current_.data(), current_.data(), current_.data() + current_.size());
  return traits_type::to_int_type(*gptr());
}

// --- LineStampBuf ------------------------------------------------------------

std::vector<std::string> LineStampBuf::lines() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lines_;
}

std::vector<Clock::time_point> LineStampBuf::stamps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stamps_;
}

LineStampBuf::int_type LineStampBuf::overflow(int_type ch) {
  if (traits_type::eq_int_type(ch, traits_type::eof()))
    return traits_type::not_eof(ch);
  const char c = traits_type::to_char_type(ch);
  append(&c, 1);
  return ch;
}

std::streamsize LineStampBuf::xsputn(const char* s, std::streamsize n) {
  append(s, static_cast<std::size_t>(n));
  return n;
}

void LineStampBuf::append(const char* s, std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < n; ++i) {
    if (s[i] != '\n') {
      partial_ += s[i];
      continue;
    }
    lines_.push_back(std::move(partial_));
    partial_.clear();
    stamps_.push_back(Clock::now());
  }
}

}  // namespace flowbench
