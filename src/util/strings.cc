#include "util/strings.h"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "util/check.h"

namespace nanomap {

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < text.size()) {
    while (start < text.size() && text[start] == delim) ++start;
    std::size_t end = start;
    while (end < text.size() && text[end] != delim) ++end;
    if (end > start) out.emplace_back(text.substr(start, end - start));
    start = end;
  }
  return out;
}

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin])))
    ++begin;
  std::size_t end = text.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1])))
    --end;
  return text.substr(begin, end - begin);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

int parse_int(std::string_view text, std::string_view context) {
  std::string buf(text);
  char* end = nullptr;
  errno = 0;
  long v = std::strtol(buf.c_str(), &end, 10);
  if (end == buf.c_str() || *end != '\0' || errno == ERANGE ||
      v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    throw InputError("expected integer in " + std::string(context) + ": '" +
                     buf + "'");
  }
  return static_cast<int>(v);
}

std::uint64_t parse_u64(std::string_view text, std::string_view context) {
  std::string buf(text);
  char* end = nullptr;
  errno = 0;
  // strtoull accepts (and wraps) a leading '-', so demand a digit first.
  unsigned long long v = std::strtoull(buf.c_str(), &end, 10);
  if (buf.empty() || !std::isdigit(static_cast<unsigned char>(buf[0])) ||
      *end != '\0' || errno == ERANGE) {
    throw InputError("expected unsigned integer in " + std::string(context) +
                     ": '" + buf + "'");
  }
  return static_cast<std::uint64_t>(v);
}

double parse_double(std::string_view text, std::string_view context) {
  std::string buf(text);
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (end == buf.c_str() || *end != '\0') {
    throw InputError("expected number in " + std::string(context) + ": '" +
                     buf + "'");
  }
  return v;
}

std::string str_format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace nanomap
