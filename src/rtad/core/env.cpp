#include "rtad/core/env.hpp"

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>

namespace rtad::core::env {

namespace {

[[noreturn]] void reject(const char* name, const std::string& value,
                         const std::string& expected) {
  throw std::invalid_argument(std::string(name) + ": expected " + expected +
                              " (got '" + value + "')");
}

/// strtoll/strtoull silently skip leading whitespace; the knob grammar does
/// not — " 4" is as much a typo as "4 ".
bool leading_space(const std::string& v) {
  return !v.empty() && std::isspace(static_cast<unsigned char>(v[0])) != 0;
}

void check_choice(const char* name, const std::string& value,
                  std::initializer_list<const char*> allowed) {
  std::string expected = "one of";
  for (const char* a : allowed) {
    if (value == a) return;
    expected += std::string(" '") + a + "'";
  }
  reject(name, value, expected);
}

}  // namespace

std::optional<std::string> raw(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return std::nullopt;
  return std::string(v);
}

std::string string_or(const char* name, std::string fallback) {
  auto v = raw(name);
  return v ? std::move(*v) : std::move(fallback);
}

std::size_t positive_or(const char* name, std::size_t fallback) {
  const auto v = raw(name);
  if (!v) return fallback;
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  if (leading_space(*v) || errno != 0 || end == v->c_str() || *end != '\0' ||
      parsed <= 0) {
    reject(name, *v, "a positive integer");
  }
  return static_cast<std::size_t>(parsed);
}

std::uint64_t u64_or(const char* name, std::uint64_t fallback,
                     std::uint64_t max) {
  const auto v = raw(name);
  if (!v) return fallback;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v->c_str(), &end, 10);
  if (leading_space(*v) || errno != 0 || end == v->c_str() || *end != '\0' ||
      (*v)[0] == '-' || parsed > max) {
    std::string expected = "a non-negative integer";
    if (max != UINT64_MAX) expected.append(" <= ").append(std::to_string(max));
    reject(name, *v, expected);
  }
  return static_cast<std::uint64_t>(parsed);
}

std::string choice_or(const char* name,
                      std::initializer_list<const char*> allowed,
                      const char* fallback) {
  const auto v = raw(name);
  if (!v) return fallback;
  check_choice(name, *v, allowed);
  return *v;
}

bool flag_or(const char* name, bool fallback) {
  const auto v = raw(name);
  if (!v) return fallback;
  if (*v == "0") return false;
  if (*v == "1") return true;
  reject(name, *v, "'0' or '1'");
}

}  // namespace rtad::core::env
