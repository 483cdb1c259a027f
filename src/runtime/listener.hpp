// Execution listeners: the instrumentation hook between the runtime and any
// detector. The serial executor emits exactly the event alphabet of §5's
// delayed-traversal construction — fork / join / halt / read / write, plus
// the annotations (sync, finish markers, lock acquire/release) — as the same
// TraceEvents a recorded trace holds (runtime/trace.hpp), so a live run and
// a replayed trace drive a listener identically.
#pragma once

#include <vector>

namespace race2d {

struct TraceEvent;

class ExecutionListener {
 public:
  virtual ~ExecutionListener() = default;

  virtual void on_event(const TraceEvent& e) = 0;
};

/// Fans events out to several listeners (e.g. record a trace while detecting).
class MultiListener : public ExecutionListener {
 public:
  void add(ExecutionListener* listener) { listeners_.push_back(listener); }

  void on_event(const TraceEvent& e) override {
    for (auto* l : listeners_) l->on_event(e);
  }

 private:
  std::vector<ExecutionListener*> listeners_;
};

}  // namespace race2d
