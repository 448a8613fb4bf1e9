#include "runtime/budget.h"

namespace swfomc::runtime {

const char* ToString(StopReason reason) {
  switch (reason) {
    case StopReason::kNone: return "none";
    case StopReason::kCancelled: return "cancelled";
    case StopReason::kDeadline: return "deadline";
    case StopReason::kDecisions: return "decisions";
    case StopReason::kMemory: return "memory";
  }
  return "?";
}

const char* ToString(Outcome outcome) {
  switch (outcome) {
    case Outcome::kExact: return "exact";
    case Outcome::kBounds: return "bounds";
    case Outcome::kAborted: return "aborted";
  }
  return "?";
}

}  // namespace swfomc::runtime
