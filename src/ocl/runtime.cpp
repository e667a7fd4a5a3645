#include "ocl/runtime.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>

// Header-only code table: the runtime names the same CLF codes as the
// static dataflow checker so a dynamic failure points back at the
// compile-time check that should have caught it (and usually does);
// genuinely runtime-only faults carry their own CLF5xx codes.
#include "analysis/codes.hpp"
#include "common/error.hpp"
#include "telemetry/flight_recorder.hpp"

namespace clflow::ocl {

namespace {
/// Host cost of issuing one (non-blocking) clEnqueue* call.
constexpr SimTime kEnqueueCost = SimTime::Us(3.0);

/// XORs `mask` into the bit pattern of one float (simulated DMA bit flip).
float FlipBits(float value, std::uint32_t mask) {
  std::uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  bits ^= mask;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}
}  // namespace

Buffer::Buffer(std::int64_t num_floats)
    : storage_(static_cast<std::size_t>(num_floats), 0.0f),
      view_(storage_) {
  CLFLOW_CHECK_MSG(num_floats > 0, "empty buffer");
}

void ValidateRuntimeOptions(const RuntimeOptions& options) {
  auto reject = [](const std::string& what) {
    throw RuntimeFaultError(std::string(analysis::kRuntimeBadOptions.id),
                            "invalid RuntimeOptions: " + what);
  };
  if (options.watchdog_timeout <= kSimTimeZero) {
    reject("watchdog_timeout must be > 0 (got " +
           std::to_string(options.watchdog_timeout.us()) + " us)");
  }
  if (options.retry.max_attempts <= 0) {
    reject("retry.max_attempts must be >= 1 (got " +
           std::to_string(options.retry.max_attempts) + ")");
  }
  if (options.retry.backoff_multiplier <= 0.0) {
    reject("retry.backoff_multiplier must be > 0 (got " +
           std::to_string(options.retry.backoff_multiplier) + ")");
  }
  if (options.retry.backoff_base < kSimTimeZero) {
    reject("retry.backoff_base must be >= 0 (got " +
           std::to_string(options.retry.backoff_base.us()) + " us)");
  }
  if (options.retry.reprogram_cost < kSimTimeZero) {
    reject("retry.reprogram_cost must be >= 0 (got " +
           std::to_string(options.retry.reprogram_cost.us()) + " us)");
  }
}

Runtime::Runtime(fpga::Bitstream bitstream, fpga::CostModel cost_model,
                 const RuntimeOptions& options)
    : bitstream_(std::move(bitstream)), cost_model_(cost_model) {
  CLFLOW_CHECK_MSG(bitstream_.ok(),
                   "cannot create a runtime from a bitstream that did not "
                   "synthesize: " +
                       bitstream_.status_detail);
  ValidateRuntimeOptions(options);
  retry_policy_ = options.retry;
  watchdog_timeout_ = options.watchdog_timeout;
  kernel_usage_.resize(bitstream_.kernels.size());
}

BufferPtr Runtime::CreateBuffer(std::int64_t num_floats) {
  return std::make_shared<Buffer>(num_floats);
}

int Runtime::CreateQueue() {
  queues_.push_back({});
  return static_cast<int>(queues_.size()) - 1;
}

int Runtime::num_queues() const { return static_cast<int>(queues_.size()); }

void Runtime::RecordEvent(std::string_view label, CommandKind kind,
                          int queue, SimTime queued, SimTime start,
                          SimTime end, SimTime stall, std::int64_t bytes,
                          bool interned) {
  const std::uint64_t span_id = ++next_span_id_;
  if (flightrec_ != nullptr) {
    flightrec_->RecordCommand(label, trace_ctx_, span_id, start.us(),
                              (end - start).us(), queue);
  }
  if (interned) {
    events_.RecordInterned(label, kind, queue, queued, start, end, stall,
                           bytes, trace_ctx_.trace_id, span_id,
                           trace_ctx_.parent_span_id);
  } else {
    events_.Record(label, kind, queue, queued, start, end, stall, bytes,
                   trace_ctx_.trace_id, span_id, trace_ctx_.parent_span_id);
  }
  event_duration_us_.Observe((end - start).us());
}

void Runtime::RecordFault(const RuntimeFaultError& fault) {
  if (flightrec_ == nullptr) return;
  telemetry::FlightEvent f;
  f.kind = "fault";
  f.label = fault.code() +
            (fault.kernel().empty() ? std::string() : " " + fault.kernel());
  f.trace_id = trace_ctx_.trace_id;
  f.parent_span_id = trace_ctx_.parent_span_id;
  f.t_us = clock_.us();
  f.queue = 0;
  f.detail = fault.what();
  flightrec_->Record(std::move(f));
}

std::string Runtime::QueueSnapshot() const {
  std::ostringstream os;
  for (int i = 0; i < num_queues(); ++i) {
    const QueueState& q = queues_[static_cast<std::size_t>(i)];
    os << "q" << i << "{last_end=" << q.last_end.us()
       << "us busy=" << q.busy.us() << "us idle=" << q.idle.us() << "us} ";
  }
  os << "clock=" << clock_.us() << "us host=" << host_time_.us() << "us";
  return os.str();
}

// The shared transfer path: one in-order-queue DMA with bounded retry.
// Every attempt (failed or not) charges real transfer time and traffic;
// failed attempts additionally charge exponential backoff as queue idle
// and appear in the event stream (and hence the Chrome trace) with a
// "[fail#n]" / "[corrupt#n]" label suffix. A corrupted attempt really
// flips bits in the destination -- the simulated checksum verify is what
// detects the mismatch and re-issues the DMA -- so an exhausted retry
// budget leaves observable corruption behind the thrown fault.
void Runtime::EnqueueTransfer(int queue, bool is_write,
                              std::int64_t num_floats,
                              const std::string& label,
                              const std::function<void()>& copy,
                              std::span<float> dest) {
  CLFLOW_CHECK(queue >= 0 && queue < num_queues());
  host_time_ += kEnqueueCost;
  QueueState& q = queues_[static_cast<std::size_t>(queue)];
  const SimTime ready = std::max(host_time_, q.last_end);
  q.idle += ready - std::max(q.last_end, batch_start_);
  const std::int64_t bytes = num_floats * 4;
  const CommandKind kind =
      is_write ? CommandKind::kWriteBuffer : CommandKind::kReadBuffer;

  SimTime start = ready;
  for (int attempt = 0;; ++attempt) {
    resilience::TransferFault fault;
    if (injector_) {
      fault = injector_->OnTransferAttempt(is_write, attempt, num_floats);
    }
    const SimTime end =
        start + fpga::TransferTime(board(), bytes, /*host_to_device=*/is_write);
    q.busy += end - start;
    (is_write ? bytes_h2d_ : bytes_d2h_) += bytes;
    (is_write ? xfer_h2d_time_ : xfer_d2h_time_) += end - start;
    q.last_end = end;
    clock_ = std::max(clock_, end);

    if (fault.action == resilience::TransferFault::Action::kNone) {
      copy();
      RecordEvent(label, kind, queue, host_time_, start, end, kSimTimeZero,
                  bytes);
      // Reads block the host by nature (the host consumes the data);
      // writes only do so under the event profiler.
      if (!is_write || profiling_) host_time_ = end;
      return;
    }

    const bool corrupt =
        fault.action == resilience::TransferFault::Action::kCorrupt;
    if (corrupt) {
      copy();
      if (!dest.empty()) {
        const auto i = static_cast<std::size_t>(fault.word_index) %
                       dest.size();
        dest[i] = FlipBits(dest[i], fault.mask);
      }
    }
    RecordEvent(label + (corrupt ? " [corrupt#" : " [fail#") +
                    std::to_string(attempt) + "]",
                kind, queue, host_time_, start, end, kSimTimeZero, bytes);
    ++xfer_retries_;
    if (attempt + 1 >= retry_policy_.max_attempts) {
      RuntimeFaultError fault(
          std::string(analysis::kRuntimeTransferFailed.id),
          std::string(is_write ? "host->device" : "device->host") +
              " transfer '" + label + "' " +
              (corrupt ? "failed checksum verification"
                       : "reported DMA failure") +
              " on all " + std::to_string(attempt + 1) +
              " attempts (RetryPolicy::max_attempts)",
          "", "", QueueSnapshot(), attempt + 1);
      RecordFault(fault);
      throw fault;
    }
    const SimTime backoff = retry_policy_.BackoffFor(attempt);
    backoff_time_ += backoff;
    q.idle += backoff;
    start = end + backoff;
  }
}

void Runtime::EnqueueWrite(int queue, const BufferPtr& buffer,
                           std::span<const float> src, std::string label) {
  CLFLOW_CHECK_MSG(src.size() <= buffer->view().size(),
                   "write larger than buffer");
  const std::span<float> dest = buffer->view().subspan(0, src.size());
  EnqueueTransfer(queue, /*is_write=*/true,
                  static_cast<std::int64_t>(src.size()), std::move(label),
                  [src, dest] { std::copy(src.begin(), src.end(),
                                          dest.begin()); },
                  dest);
}

void Runtime::EnqueueRead(int queue, const BufferPtr& buffer,
                          std::span<float> dst, std::string label) {
  CLFLOW_CHECK_MSG(dst.size() <= buffer->view().size(),
                   "read larger than buffer");
  const BufferPtr src = buffer;
  EnqueueTransfer(queue, /*is_write=*/false,
                  static_cast<std::int64_t>(dst.size()), std::move(label),
                  [src, dst] { std::copy_n(src->view().begin(), dst.size(),
                                           dst.begin()); },
                  dst);
}

int Runtime::ChannelId(const std::string& name) {
  const auto [it, inserted] =
      channel_ids_.emplace(name, static_cast<int>(channels_.size()));
  if (inserted) channels_.emplace_back().name = name;
  return it->second;
}

LaunchRow Runtime::Resolve(const KernelLaunch& launch, int queue,
                           bool autorun) {
  CLFLOW_CHECK(autorun || (queue >= 0 && queue < num_queues()));
  const fpga::KernelDesign* design = bitstream_.Find(launch.name);
  if (design == nullptr) {
    RuntimeFaultError fault(
        std::string(analysis::kRuntimeUnknownKernel.id),
        "kernel " + launch.name + " is not in the programmed bitstream",
        launch.name, "", QueueSnapshot());
    RecordFault(fault);
    throw fault;
  }
  LaunchRow row;
  row.name = launch.name;
  row.label = events_.Intern(launch.name);
  row.stats = launch.stats;
  row.design = design;
  row.kernel_id = static_cast<int>(design - bitstream_.kernels.data());
  for (const std::string& chan : launch.reads_channels) {
    row.reads.push_back(ChannelId(chan));
  }
  for (const std::string& chan : launch.writes_channels) {
    row.writes.push_back(ChannelId(chan));
  }
  row.autorun = autorun;
  row.queue = autorun ? 0 : queue;
  return row;
}

SimTime Runtime::KernelReady(const LaunchRow& row, SimTime base) {
  SimTime ready = base;
  for (const int id : row.reads) {
    ChannelState& chan = channels_[static_cast<std::size_t>(id)];
    if (chan.hung_writer >= 0) {
      // The writer was dispatched but will never deliver: the watchdog
      // charges its timeout to the channel stall and converts what would
      // be an unbounded hardware hang into a structured fault.
      chan.stall += watchdog_timeout_;
      chan.stalled = true;
      clock_ = std::max(clock_, base + watchdog_timeout_);
      RuntimeFaultError fault(
          std::string(analysis::kRuntimeChannelDeadlock.id),
          "watchdog: kernel " + row.name + " blocked on channel " +
              chan.name + " for " + std::to_string(watchdog_timeout_.us()) +
              " us; writer " +
              bitstream_.kernels[static_cast<std::size_t>(chan.hung_writer)]
                  .name +
              " hung and will never deliver (deadlock on hardware)",
          row.name, chan.name, QueueSnapshot());
      RecordFault(fault);
      throw fault;
    }
    if (chan.writers == 0) {
      RuntimeFaultError fault(
          std::string(analysis::kRuntimeChannelProtocol.id),
          std::string(analysis::kChannelNoWriter.id) + ": kernel " +
              row.name + " reads channel " + chan.name +
              " with no enqueued producer: this deadlocks on hardware",
          row.name, chan.name, QueueSnapshot());
      RecordFault(fault);
      throw fault;
    }
    if (chan.ready > base) {
      chan.stall += chan.ready - base;
      chan.stalled = true;
    }
    ready = std::max(ready, chan.ready);
  }
  return ready;
}

void Runtime::Dispatch(LaunchRow& row,
                       const std::function<void()>& functional) {
  const bool autorun = row.autorun;
  const int queue = row.queue;
  resilience::KernelFault fault;
  if (injector_) fault = injector_->OnKernelDispatch(row.name);

  if (fault.reset) {
    // Device lost before dispatch: the host reprograms the FPGA (a
    // dominant, very visible cost on real PACs) and then re-dispatches.
    // Host memory holds the functional state, so the batch survives.
    const SimTime start = host_time_;
    host_time_ += retry_policy_.reprogram_cost;
    clock_ = std::max(clock_, host_time_);
    ++reprograms_;
    RecordEvent("reprogram [" + row.name + "]", CommandKind::kKernel,
                autorun ? -1 : queue, start, start, host_time_, kSimTimeZero,
                0);
  }
  if (fault.corrupt_times >= retry_policy_.max_attempts) {
    RuntimeFaultError err(
        std::string(analysis::kRuntimeKernelCorrupt.id),
        "kernel " + row.name + " output checksum failed " +
            std::to_string(fault.corrupt_times) +
            " consecutive executions (RetryPolicy::max_attempts=" +
            std::to_string(retry_policy_.max_attempts) + ")",
        row.name, "", QueueSnapshot(), retry_policy_.max_attempts);
    RecordFault(err);
    throw err;
  }

  SimTime ready;
  SimTime dispatch_base;  ///< when the kernel could run absent channel waits
  if (autorun) {
    // No host dispatch: constrained only by data availability.
    dispatch_base = batch_start_;
    ready = KernelReady(row, dispatch_base);
  } else {
    host_time_ += kEnqueueCost;
    QueueState& q = queues_[static_cast<std::size_t>(queue)];
    // Dispatch overhead is paid after the queue frees up; a kernel that is
    // dispatched early and then blocks on a channel hides it (SS4.8).
    dispatch_base = std::max(host_time_, q.last_end) +
                    SimTime::Us(board().kernel_launch_us);
    ready = KernelReady(row, dispatch_base);
  }
  const SimTime stall = ready - dispatch_base;

  if (fault.hang) {
    // The kernel starts but never completes. Charge the watchdog bound so
    // the trace shows the stuck occupancy, poison its output channels, and
    // let the first blocked consumer -- or Finish() -- convert the
    // deadlock into a structured RuntimeFaultError.
    const SimTime end = ready + watchdog_timeout_;
    if (!autorun) {
      QueueState& q = queues_[static_cast<std::size_t>(queue)];
      q.idle += ready - std::max(q.last_end, batch_start_);
      q.busy += end - ready;
      q.last_end = end;
    }
    for (const int id : row.writes) {
      channels_[static_cast<std::size_t>(id)].hung_writer = row.kernel_id;
    }
    if (hung_kernel_ < 0) hung_kernel_ = row.kernel_id;
    RecordEvent(row.name + " [hung]", CommandKind::kKernel,
                autorun ? -1 : queue, autorun ? ready : host_time_, ready,
                end, stall, 0);
    clock_ = std::max(clock_, end);
    return;
  }

  // Functional execution: corrupted executions are discarded by the
  // output-checksum verify and rerun; the functors are deterministic pure
  // functions of their (unchanged) inputs, so the surviving execution is
  // bit-exact with the fault-free run.
  if (functional) functional();

  // Thermal throttling scales the achievable clock for every dispatch.
  const double effective_fmax =
      fmax_mhz() * (injector_ ? injector_->fmax_factor() : 1.0);
  if (row.exec_fmax_mhz != effective_fmax) {
    row.exec = fpga::InvocationTime(row.stats, board(), effective_fmax,
                                    cost_model_);
    row.exec_fmax_mhz = effective_fmax;
  }
  const SimTime exec = row.exec;
  const int executions = 1 + fault.corrupt_times;
  const SimTime end = ready + exec * executions;
  kernel_reruns_ += fault.corrupt_times;

  if (!autorun) {
    QueueState& q = queues_[static_cast<std::size_t>(queue)];
    q.idle += ready - std::max(q.last_end, batch_start_);
    q.busy += end - ready;
    q.last_end = end;
  }
  for (const int id : row.writes) {
    ChannelState& chan = channels_[static_cast<std::size_t>(id)];
    chan.ready = end;
    if (++chan.writers > 1) {
      RuntimeFaultError fault2(
          std::string(analysis::kRuntimeChannelProtocol.id),
          std::string(analysis::kChannelEndpoints.id) + ": channel " +
              chan.name +
              " written by more than one kernel in a batch (last: " +
              row.name + "); Intel channels are strictly point-to-point",
          row.name, chan.name, QueueSnapshot());
      RecordFault(fault2);
      throw fault2;
    }
  }
  clock_ = std::max(clock_, end);
  KernelUsage& usage =
      kernel_usage_[static_cast<std::size_t>(row.kernel_id)];
  usage.total += end - ready;
  ++usage.invocations;
  for (int e = 0; e < executions; ++e) {
    const SimTime s = ready + exec * e;
    const SimTime queued = autorun ? ready : host_time_;
    if (e == 0) {
      RecordEvent(row.label, CommandKind::kKernel, autorun ? -1 : queue,
                  queued, s, s + exec, stall, 0, /*interned=*/true);
    } else {
      RecordEvent(row.name + " [rerun#" + std::to_string(e) + "]",
                  CommandKind::kKernel, autorun ? -1 : queue, queued, s,
                  s + exec, kSimTimeZero, 0);
    }
  }
  if (profiling_ && !autorun) host_time_ = end;
}

void Runtime::EnqueueKernel(int queue, const KernelLaunch& launch) {
  LaunchRow row = Resolve(launch, queue, /*autorun=*/false);
  Dispatch(row, launch.functional);
}

void Runtime::RunAutorun(const KernelLaunch& launch) {
  LaunchRow row = Resolve(launch, /*queue=*/0, /*autorun=*/true);
  Dispatch(row, launch.functional);
}

SimTime Runtime::Finish() {
  const SimTime makespan = clock_ - batch_start_;
  // Close out per-queue idle accounting: a queue that went quiet before
  // the makespan's end idles until every queue drains.
  for (QueueState& q : queues_) {
    q.idle += clock_ - std::max(q.last_end, batch_start_);
  }
  host_time_ = std::max(host_time_, clock_);
  batch_start_ = clock_;
  const int hung = hung_kernel_;
  std::string channel;
  for (const ChannelState& chan : channels_) {
    if (hung >= 0 && chan.hung_writer == hung) {
      channel = chan.name;
      break;
    }
  }
  ResetBatchState();
  if (hung >= 0) {
    // Watchdog: a dispatched kernel never completed, so the queues can
    // never drain -- on hardware Finish() would hang forever. The hang
    // state is cleared (the batch is lost, the runtime object stays
    // usable); raise the structured deadlock instead.
    const std::string& kernel =
        bitstream_.kernels[static_cast<std::size_t>(hung)].name;
    RuntimeFaultError fault(
        std::string(analysis::kRuntimeChannelDeadlock.id),
        "watchdog: kernel " + kernel + " never completed within " +
            std::to_string(watchdog_timeout_.us()) +
            " us; its command queue cannot drain" +
            (channel.empty() ? ""
                             : " and channel " + channel +
                                   " will never be ready"),
        kernel, channel, QueueSnapshot());
    RecordFault(fault);
    throw fault;
  }
  return makespan;
}

void Runtime::AbortBatch() {
  // Same bookkeeping as Finish(), minus the makespan and the hung-kernel
  // raise: the batch is declared lost, not drained. A fault thrown
  // mid-enqueue leaves channel writers and hung writers set; without
  // this clear, the next batch on this runtime would trip spurious
  // CLF506/CLF502 faults on the stale state.
  for (QueueState& q : queues_) {
    q.idle += clock_ - std::max(q.last_end, batch_start_);
  }
  host_time_ = std::max(host_time_, clock_);
  batch_start_ = clock_;
  ResetBatchState();
}

void Runtime::ResetBatchState() {
  for (ChannelState& chan : channels_) {
    chan.writers = 0;
    chan.hung_writer = -1;
  }
  hung_kernel_ = -1;
}

Runtime::QueueUsage Runtime::queue_usage(int queue) const {
  CLFLOW_CHECK(queue >= 0 && queue < num_queues());
  const QueueState& q = queues_[static_cast<std::size_t>(queue)];
  return {q.busy, q.idle};
}

std::map<std::string, SimTime> Runtime::channel_stall() const {
  std::map<std::string, SimTime> stalls;
  for (const ChannelState& chan : channels_) {
    if (chan.stalled) stalls.emplace(chan.name, chan.stall);
  }
  return stalls;
}

std::map<std::string, Runtime::KernelUsage> Runtime::kernel_usage() const {
  std::map<std::string, KernelUsage> usage;
  for (std::size_t k = 0; k < kernel_usage_.size(); ++k) {
    if (kernel_usage_[k].invocations > 0) {
      usage.emplace(bitstream_.kernels[k].name, kernel_usage_[k]);
    }
  }
  return usage;
}

void Runtime::ExportMetrics(obs::Registry& registry,
                            const obs::Labels& base_labels) const {
  auto with = [&base_labels](obs::Labels extra) {
    extra.insert(base_labels.begin(), base_labels.end());
    return extra;
  };
  for (int i = 0; i < num_queues(); ++i) {
    const QueueState& q = queues_[static_cast<std::size_t>(i)];
    const obs::Labels l = with({{"queue", std::to_string(i)}});
    registry.gauge("ocl.queue.busy_us", l).Set(q.busy.us());
    registry.gauge("ocl.queue.idle_us", l).Set(q.idle.us());
    const SimTime span = q.busy + q.idle;
    registry.gauge("ocl.queue.occupancy", l)
        .Set(span > kSimTimeZero ? q.busy.seconds() / span.seconds() : 0.0);
  }
  const std::map<std::string, SimTime> stalls = channel_stall();
  SimTime stall_total;
  for (const auto& [chan, t] : stalls) {
    registry.gauge("ocl.channel.stall_us", with({{"channel", chan}}))
        .Set(t.us());
    stall_total += t;
  }
  registry.gauge("ocl.channel.stall_total_us", base_labels)
      .Set(stall_total.us());
  registry.gauge("ocl.xfer.h2d_bytes", base_labels)
      .Set(static_cast<double>(bytes_h2d_));
  registry.gauge("ocl.xfer.d2h_bytes", base_labels)
      .Set(static_cast<double>(bytes_d2h_));
  if (xfer_h2d_time_ > kSimTimeZero) {
    registry.gauge("ocl.xfer.h2d_gbps", base_labels)
        .Set(static_cast<double>(bytes_h2d_) / xfer_h2d_time_.seconds() /
             1e9);
  }
  if (xfer_d2h_time_ > kSimTimeZero) {
    registry.gauge("ocl.xfer.d2h_gbps", base_labels)
        .Set(static_cast<double>(bytes_d2h_) / xfer_d2h_time_.seconds() /
             1e9);
  }
  for (const auto& [name, usage] : kernel_usage()) {
    const obs::Labels l = with({{"kernel", name}});
    registry.gauge("ocl.kernel.total_us", l).Set(usage.total.us());
    registry.gauge("ocl.kernel.invocations", l)
        .Set(static_cast<double>(usage.invocations));
  }
  // Event-duration quantiles come from the runtime-owned log-bucketed
  // histogram; exporting them as gauges (not observations into a
  // registry histogram) keeps repeated exports idempotent.
  if (const obs::Histogram::Snapshot ev = event_duration_us_.snapshot();
      ev.count > 0) {
    registry.gauge("ocl.event.duration_p50_us", base_labels).Set(ev.p50);
    registry.gauge("ocl.event.duration_p99_us", base_labels).Set(ev.p99);
    registry.gauge("ocl.event.duration_max_us", base_labels).Set(ev.max);
    registry.gauge("ocl.event.count", base_labels)
        .Set(static_cast<double>(ev.count));
  }
  registry.gauge("ocl.resilience.xfer_retries", base_labels)
      .Set(static_cast<double>(xfer_retries_));
  registry.gauge("ocl.resilience.kernel_reruns", base_labels)
      .Set(static_cast<double>(kernel_reruns_));
  registry.gauge("ocl.resilience.reprograms", base_labels)
      .Set(static_cast<double>(reprograms_));
  registry.gauge("ocl.resilience.backoff_us", base_labels)
      .Set(backoff_time_.us());
  if (injector_) {
    registry.gauge("ocl.resilience.fmax_factor", base_labels)
        .Set(injector_->fmax_factor());
    registry.gauge("ocl.resilience.injected_faults", base_labels)
        .Set(static_cast<double>(injector_->injected().size()));
  }
}

}  // namespace clflow::ocl
