// Small string helpers shared by the .nmap parser and report printers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace nanomap {

// Splits on any run of the given delimiter; no empty tokens are produced.
std::vector<std::string> split(std::string_view text, char delim);

// Strips leading/trailing ASCII whitespace.
std::string_view trim(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);

// Parses a whole decimal integer (sign allowed) in the range of int;
// throws InputError with `context` on failure.
int parse_int(std::string_view text, std::string_view context);

// Parses a whole unsigned decimal integer (no sign) in the range of
// std::uint64_t; throws InputError with `context` on failure.
std::uint64_t parse_u64(std::string_view text, std::string_view context);

// Parses a double; throws InputError with `context` on failure.
double parse_double(std::string_view text, std::string_view context);

// printf-style helper returning std::string (used for table rows).
std::string str_format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace nanomap
