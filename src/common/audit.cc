#include "common/audit.h"

#include <unistd.h>

#include "common/strings.h"

namespace fgac::common {

namespace {

size_t NextPowerOfTwo(size_t n) {
  size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

int64_t WallClockMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

uint64_t AuditStatementHash(std::string_view statement) {
  uint64_t h = 14695981039346656037ULL;  // FNV-1a offset basis
  for (char c : statement) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string AuditHashHex(uint64_t hash) {
  // Fixed-width hex: stable to grep, no signedness surprises.
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(16);
  for (int shift = 60; shift >= 0; shift -= 4) {
    out.push_back(kHex[(hash >> shift) & 0xF]);
  }
  return out;
}

std::string AuditEvent::ToJson() const {
  std::string out = "{\"seq\":" + std::to_string(seq) +
                    ",\"wall_ms\":" + std::to_string(wall_ms) +
                    ",\"user\":" + JsonQuote(user) +
                    ",\"session\":" + JsonQuote(session) +
                    ",\"mode\":" + JsonQuote(mode) +
                    ",\"statement\":" + JsonQuote(statement) +
                    ",\"statement_hash\":\"" + AuditHashHex(statement_hash);
  out += "\",\"verdict\":" + JsonQuote(verdict);
  if (!rules.empty()) out += ",\"rules\":" + JsonQuote(rules);
  out += ",\"probes\":" + std::to_string(probes) +
         ",\"guard_rows\":" + std::to_string(guard_rows) +
         ",\"guard_bytes\":" + std::to_string(guard_bytes) +
         ",\"duration_us\":" + std::to_string(duration_us) +
         ",\"status\":" + JsonQuote(status);
  if (!error.empty()) out += ",\"error\":" + JsonQuote(error);
  if (trace_id != 0) out += ",\"trace_id\":" + std::to_string(trace_id);
  out += ",\"from_cache\":" + std::string(from_cache ? "true" : "false") +
         ",\"rows_out\":" + std::to_string(rows_out) +
         ",\"admission_wait_us\":" + std::to_string(admission_wait_us) +
         ",\"validity_us\":" + std::to_string(validity_us) +
         ",\"exec_us\":" + std::to_string(exec_us) +
         ",\"queue_wait_us\":" + std::to_string(queue_wait_us) +
         ",\"run_us\":" + std::to_string(run_us);
  if (!trace.empty()) out += ",\"trace\":" + JsonQuote(trace);
  if (!stats.empty()) out += ",\"stats\":" + JsonQuote(stats);
  out += "}";
  return out;
}

AuditLog::AuditLog(AuditOptions options) : options_(std::move(options)) {
  if (!options_.enabled) return;
  capacity_ = NextPowerOfTwo(options_.ring_capacity < 2 ? 2
                                                        : options_.ring_capacity);
  mask_ = capacity_ - 1;
  cells_ = std::make_unique<Cell[]>(capacity_);
  for (size_t i = 0; i < capacity_; ++i) {
    cells_[i].seq.store(i, std::memory_order_relaxed);
  }
  if (!options_.sink_path.empty()) {
    sink_ = std::fopen(options_.sink_path.c_str(), "a");
    // A sink that cannot be opened degrades to in-memory retention; the
    // metrics exporter still shows emitted/persisted so the gap is visible.
  }
  flusher_ = std::thread([this] { FlusherMain(); });
}

AuditLog::~AuditLog() {
  if (flusher_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(flusher_mu_);
      stop_ = true;
    }
    flusher_cv_.notify_one();
    flusher_.join();
  }
  if (sink_ != nullptr) {
    std::fflush(sink_);
    if (options_.fsync_each_flush) fsync(fileno(sink_));
    std::fclose(sink_);
  }
}

void AuditLog::Append(AuditEvent event) {
  if (!options_.enabled) return;
  event.seq = next_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (event.wall_ms == 0) event.wall_ms = WallClockMs();
  if (event.statement.size() > options_.max_statement_bytes) {
    event.statement.resize(options_.max_statement_bytes);
    event.statement += "...";
  }

  // Vyukov bounded-queue publish: claim a ticket, move the event into the
  // claimed cell, release it to the consumer by advancing the cell's seq.
  bool published = false;
  uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = cells_[pos & mask_];
    uint64_t seq = cell.seq.load(std::memory_order_acquire);
    int64_t dif = static_cast<int64_t>(seq) - static_cast<int64_t>(pos);
    if (dif == 0) {
      if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                             std::memory_order_relaxed)) {
        cell.event = std::move(event);
        cell.seq.store(pos + 1, std::memory_order_release);
        published = true;
        break;
      }
    } else if (dif < 0) {
      // Ring full: the flusher is behind. Drop rather than stall the query
      // path — the drop counter makes the loss visible and exact.
      break;
    } else {
      pos = enqueue_pos_.load(std::memory_order_relaxed);
    }
  }
  if (!published) dropped_.fetch_add(1, std::memory_order_release);
  // Counted last so Flush()'s target only covers fully-accounted events.
  emitted_.fetch_add(1, std::memory_order_release);
}

size_t AuditLog::DrainOnce() {
  // Dequeue the whole published run into a local batch first: one
  // retained_mu_ acquisition and one fwrite per drain, not per event —
  // the flusher's interference with query threads (lock hold time,
  // syscalls) stays O(1) per wakeup.
  std::vector<AuditEvent> batch;
  for (;;) {
    Cell& cell = cells_[dequeue_pos_ & mask_];
    uint64_t seq = cell.seq.load(std::memory_order_acquire);
    if (static_cast<int64_t>(seq) -
            static_cast<int64_t>(dequeue_pos_ + 1) !=
        0) {
      break;  // next cell not published yet
    }
    batch.push_back(std::move(cell.event));
    cell.event = AuditEvent{};
    cell.seq.store(dequeue_pos_ + capacity_, std::memory_order_release);
    ++dequeue_pos_;
  }
  if (batch.empty()) return 0;

  if (sink_ != nullptr) {
    std::string lines;
    for (const AuditEvent& event : batch) {
      lines += event.ToJson();
      lines.push_back('\n');
    }
    std::fwrite(lines.data(), 1, lines.size(), sink_);
    std::fflush(sink_);
    if (options_.fsync_each_flush) fsync(fileno(sink_));
  }
  const size_t drained = batch.size();
  {
    std::lock_guard<std::mutex> lock(retained_mu_);
    for (AuditEvent& event : batch) {
      if (retained_.size() >= options_.retain_events) retained_.pop_front();
      retained_.push_back(std::move(event));
    }
  }
  // Published only after the sink flush, so a Flush() that observes the
  // count also observes the bytes in the file.
  persisted_.fetch_add(drained, std::memory_order_release);
  return drained;
}

void AuditLog::FlusherMain() {
  for (;;) {
    DrainOnce();
    std::unique_lock<std::mutex> lock(flusher_mu_);
    flush_done_cv_.notify_all();
    if (stop_) break;
    flusher_cv_.wait_for(lock, options_.flush_interval);
  }
  // Final drain: events appended before the destructor flipped stop_ are
  // persisted, not stranded in the ring.
  DrainOnce();
  std::lock_guard<std::mutex> lock(flusher_mu_);
  flush_done_cv_.notify_all();
}

void AuditLog::Flush() {
  if (!options_.enabled) return;
  const uint64_t target = emitted_.load(std::memory_order_acquire);
  std::unique_lock<std::mutex> lock(flusher_mu_);
  while (persisted_.load(std::memory_order_acquire) +
             dropped_.load(std::memory_order_acquire) <
         target) {
    flusher_cv_.notify_one();
    flush_done_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

std::vector<AuditEvent> AuditLog::SnapshotRetained() const {
  std::lock_guard<std::mutex> lock(retained_mu_);
  return std::vector<AuditEvent>(retained_.begin(), retained_.end());
}

}  // namespace fgac::common
