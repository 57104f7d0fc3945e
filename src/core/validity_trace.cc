#include "core/validity_trace.h"

#include "common/strings.h"

namespace fgac::core {

namespace {

/// All JSON string emission funnels through the shared escaper so probe
/// SQL containing arbitrary literal bytes cannot break the JSON-lines
/// audit format.
void AppendJsonString(std::string* out, const std::string& s) {
  out->append(JsonQuote(s));
}

}  // namespace

const char* ValidityTraceEvent::KindName(Kind kind) {
  switch (kind) {
    case Kind::kCacheHit:
      return "cache_hit";
    case Kind::kCacheMiss:
      return "cache_miss";
    case Kind::kRuleFired:
      return "rule_fired";
    case Kind::kProbeBatch:
      return "probe_batch";
    case Kind::kExpansion:
      return "expansion";
    case Kind::kVerdict:
      return "verdict";
    case Kind::kDegraded:
      return "degraded_to_truman";
  }
  return "?";
}

std::vector<std::string> ValidityTrace::RuleSequence() const {
  std::vector<std::string> out;
  for (const ValidityTraceEvent& e : events_) {
    if (e.kind == ValidityTraceEvent::Kind::kRuleFired) out.push_back(e.rule);
  }
  return out;
}

bool ValidityTrace::FiredRule(const std::string& rule) const {
  for (const ValidityTraceEvent& e : events_) {
    if (e.kind == ValidityTraceEvent::Kind::kRuleFired && e.rule == rule) {
      return true;
    }
  }
  return false;
}

uint64_t ValidityTrace::TotalProbes() const {
  uint64_t total = 0;
  for (const ValidityTraceEvent& e : events_) {
    if (e.kind == ValidityTraceEvent::Kind::kProbeBatch) total += e.probes;
  }
  return total;
}

std::string ValidityTrace::ToJsonLines() const {
  std::string out;
  for (const ValidityTraceEvent& e : events_) {
    out += "{\"event\":";
    AppendJsonString(&out, ValidityTraceEvent::KindName(e.kind));
    out += ",\"at_us\":" + std::to_string(e.at_us);
    if (!e.rule.empty()) {
      out += ",\"rule\":";
      AppendJsonString(&out, e.rule);
    }
    if (!e.detail.empty()) {
      out += ",\"detail\":";
      AppendJsonString(&out, e.detail);
    }
    if (e.kind == ValidityTraceEvent::Kind::kProbeBatch) {
      out += ",\"probes\":" + std::to_string(e.probes) +
             ",\"nonempty\":" + std::to_string(e.probe_rows) +
             ",\"guard_rows\":" + std::to_string(e.guard_rows);
      if (!e.probe_sql.empty()) {
        out += ",\"probe_sql\":";
        AppendJsonString(&out, e.probe_sql);
      }
    }
    if (e.kind == ValidityTraceEvent::Kind::kVerdict ||
        e.kind == ValidityTraceEvent::Kind::kDegraded) {
      out += ",\"valid\":" + std::string(e.valid ? "true" : "false") +
             ",\"unconditional\":" +
             std::string(e.unconditional ? "true" : "false") +
             ",\"guard_rows\":" + std::to_string(e.guard_rows) +
             ",\"guard_bytes\":" + std::to_string(e.guard_bytes);
    }
    out += "}\n";
  }
  return out;
}

std::string ValidityTrace::ToText() const {
  std::string out;
  for (const ValidityTraceEvent& e : events_) {
    out += "  ";
    out += ValidityTraceEvent::KindName(e.kind);
    if (!e.rule.empty()) out += " " + e.rule;
    if (e.kind == ValidityTraceEvent::Kind::kProbeBatch) {
      out += " probes=" + std::to_string(e.probes) +
             " nonempty=" + std::to_string(e.probe_rows);
    }
    if (!e.detail.empty()) out += " (" + e.detail + ")";
    out += "\n";
  }
  return out;
}

}  // namespace fgac::core
