#include "obs/span.hpp"

#include <sstream>

#include "obs/json.hpp"

namespace clflow::obs {

namespace detail {
extern thread_local Registry* g_current_registry;  // defined in metrics.cpp
thread_local Tracer* g_current_tracer = nullptr;
}  // namespace detail

std::int64_t Tracer::NowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer* Tracer::Current() { return detail::g_current_tracer; }

std::size_t Tracer::Open(std::string name, std::string category) {
  std::lock_guard lock(mu_);
  SpanRecord rec;
  rec.name = std::move(name);
  rec.category = std::move(category);
  rec.start_us = NowUs();
  rec.depth = depth_++;
  spans_.push_back(std::move(rec));
  return spans_.size() - 1;
}

void Tracer::Close(std::size_t index) {
  std::lock_guard lock(mu_);
  SpanRecord& rec = spans_[index];
  rec.dur_us = NowUs() - rec.start_us;
  --depth_;
}

void Tracer::AddArg(std::size_t index, std::string key, std::string value) {
  std::lock_guard lock(mu_);
  spans_[index].args.emplace_back(std::move(key), std::move(value));
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name, std::string category)
    : tracer_(tracer) {
  if (tracer_ != nullptr) {
    index_ = tracer_->Open(std::move(name), std::move(category));
  }
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) tracer_->Close(index_);
}

void ScopedSpan::Arg(const std::string& key, std::string value) {
  if (tracer_ != nullptr) tracer_->AddArg(index_, key, std::move(value));
}

void ScopedSpan::Arg(const std::string& key, std::int64_t value) {
  if (tracer_ != nullptr) {
    tracer_->AddArg(index_, key, std::to_string(value));
  }
}

ScopedTelemetry::ScopedTelemetry(Telemetry* t)
    : prev_registry_(detail::g_current_registry),
      prev_tracer_(detail::g_current_tracer) {
  detail::g_current_registry = t != nullptr ? &t->registry : nullptr;
  detail::g_current_tracer = t != nullptr ? &t->tracer : nullptr;
}

ScopedTelemetry::~ScopedTelemetry() {
  detail::g_current_registry = prev_registry_;
  detail::g_current_tracer = prev_tracer_;
}

}  // namespace clflow::obs
