// Consolidated RTAD_* environment-knob parsing.
//
// The grammar every RTAD_* knob is read with, so a malformed value is
// rejected loudly — std::invalid_argument naming the variable, the
// offending text, and the accepted grammar — instead of silently decaying
// to a default. A typo like RTAD_JOBS=fulL used to mean
// "hardware_concurrency" and RTAD_SCHED=evnet used to mean "event", the
// worst failure modes for a determinism-sensitive tool: the run completes,
// just not the run you asked for.
//
// Two conventions shared by every knob:
//   * The empty string counts as unset (`VAR= cmd` clears a knob without
//     unsetenv), matching the long-standing RTAD_FAULTS behaviour.
//   * The value must be consumed in full — trailing garbage is an error.
//
// Only the entry points call these helpers: DetectionOptions::from_env,
// serve::ServiceConfig::from_env, the `jobs == 0` of ExperimentRunner /
// serve::Service (core::resolve_jobs), and the bench mains (RTAD_SMOKE and
// RTAD_BENCH_JSON through bench/common). The layers below core never read
// the environment; their config structs default to constants.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>

namespace rtad::core::env {

/// Raw value of `name`; nullopt when unset or set to the empty string.
std::optional<std::string> raw(const char* name);

/// Free-form string knob (paths); no validation beyond the
/// empty-means-unset rule.
std::string string_or(const char* name, std::string fallback);

/// Strictly positive integer knob (worker counts). Throws
/// std::invalid_argument on non-numeric, zero, negative, out-of-range, or
/// trailing-garbage values.
std::size_t positive_or(const char* name, std::size_t fallback);

/// Unsigned integer knob (zero allowed) of at most `max` — pass
/// UINT64_MAX / scale for a knob the caller multiplies by `scale`, so the
/// product cannot wrap. Throws on malformed or too-large values.
std::uint64_t u64_or(const char* name, std::uint64_t fallback,
                     std::uint64_t max = UINT64_MAX);

/// Enumerated knob: the value must equal one of `allowed` exactly. Throws
/// with a message listing the accepted spellings.
std::string choice_or(const char* name,
                      std::initializer_list<const char*> allowed,
                      const char* fallback);

/// Boolean knob: "0"/"1" only. Throws on anything else.
bool flag_or(const char* name, bool fallback);

}  // namespace rtad::core::env
