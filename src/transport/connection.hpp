// One framed, non-blocking TCP connection on an EventLoop.
//
// Reads are fed through a wire::FrameDecoder and surface as whole decoded
// frames; writes queue in user space and drain on writability. The send
// queue has a high watermark: crossing it marks the connection
// backpressured (observable by the owner, which is expected to stop
// reading from the sources that feed this sink) and a low watermark that
// clears the mark once the kernel has caught up. A decode error condemns
// the connection — framing has no resynchronisation point.
//
// All methods run on the loop thread. The stats counters are atomics so
// other threads (harnesses, metrics scrapes) may read them live.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "transport/event_loop.hpp"
#include "wire/codec.hpp"

namespace xroute::transport {

/// One encoded frame shared across many send queues: the serialize-once
/// contract of the edge fan-out path. Immutable by type — every holder
/// sees the same bytes, no copy per recipient.
using SharedFrame = std::shared_ptr<const std::vector<std::uint8_t>>;

/// Live per-connection counters (relaxed atomics: monotonic totals, no
/// cross-field consistency promised to concurrent readers).
struct ConnectionStats {
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};
  std::atomic<std::uint64_t> frames_in{0};
  std::atomic<std::uint64_t> frames_out{0};
  std::atomic<std::uint64_t> backpressure_events{0};
  /// Bytes queued through send_shared (zero-copy refcounted frames).
  std::atomic<std::uint64_t> shared_bytes_out{0};
};

class Connection {
 public:
  struct Options {
    /// Pending-send bytes that flip the connection into backpressure.
    std::size_t high_watermark = 4u << 20;
    /// Pending-send bytes below which backpressure clears.
    std::size_t low_watermark = 512u << 10;
  };

  /// Called for every complete decoded frame.
  using FrameHandler = std::function<void(wire::Decoded&&)>;
  /// Called exactly once when the connection dies (peer close, socket
  /// error, decode error, or local close()).
  using CloseHandler = std::function<void(const std::string& reason)>;
  /// Called on backpressure transitions (true = above high watermark).
  using BackpressureHandler = std::function<void(bool engaged)>;
  /// Called every time the send queue transitions to empty (the last
  /// queued byte was handed to the kernel). Drives event-driven drain
  /// waiters; never called while frames are still pending.
  using DrainHandler = std::function<void()>;
  /// Called after each read has surfaced its frames, before a hang-up seen
  /// by that read closes the connection. The frames' Decoded::raw spans
  /// are still valid here: the decoder is fed again only by the next read.
  using ReadDoneHandler = std::function<void()>;

  /// Takes ownership of `fd` (a connected, non-blocking socket).
  Connection(EventLoop* loop, int fd, Options options);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void set_frame_handler(FrameHandler handler) { on_frame_ = std::move(handler); }
  void set_close_handler(CloseHandler handler) { on_close_ = std::move(handler); }
  void set_backpressure_handler(BackpressureHandler handler) {
    on_backpressure_ = std::move(handler);
  }
  void set_drain_handler(DrainHandler handler) {
    on_drain_ = std::move(handler);
  }
  void set_read_done_handler(ReadDoneHandler handler) {
    on_read_done_ = std::move(handler);
  }

  /// Registers with the loop and starts reading.
  void start();

  /// Queues an encoded frame; attempts an immediate write when the queue
  /// was empty. Returns false (and drops the frame) once closed.
  bool send(std::vector<std::uint8_t> frame);

  /// Queues a refcounted immutable frame without copying its bytes: the
  /// same SharedFrame can sit in thousands of connections' queues at
  /// once (edge fan-out). Same semantics as send() otherwise.
  bool send_shared(SharedFrame frame);

  /// Pauses/resumes read interest (ingress flow control; the owner calls
  /// this when some *other* connection's send queue backs up).
  void set_read_enabled(bool enabled);

  void close(const std::string& reason);

  bool closed() const { return fd_ < 0; }
  bool read_enabled() const { return read_enabled_; }
  bool backpressured() const { return backpressured_; }
  std::size_t pending_bytes() const { return pending_bytes_; }
  int fd() const { return fd_; }
  const ConnectionStats& stats() const { return stats_; }

 private:
  /// One send-queue entry: either bytes this connection owns (send()) or
  /// a refcounted frame shared with other queues (send_shared()). Exactly
  /// one of the two is populated.
  struct Outgoing {
    std::vector<std::uint8_t> owned;
    SharedFrame shared;

    const std::uint8_t* data() const {
      return shared ? shared->data() : owned.data();
    }
    std::size_t size() const { return shared ? shared->size() : owned.size(); }
  };

  void on_io(std::uint32_t events);
  void handle_readable();
  void handle_writable();
  bool enqueue(Outgoing out);
  void update_interest();
  void update_backpressure();

  EventLoop* loop_;
  int fd_;
  Options options_;
  wire::FrameDecoder decoder_;
  std::deque<Outgoing> send_queue_;
  std::size_t send_offset_ = 0;  ///< bytes of the queue head already written
  std::size_t pending_bytes_ = 0;
  bool read_enabled_ = true;
  bool want_write_ = false;
  bool backpressured_ = false;
  bool in_dispatch_ = false;  ///< guards against close() re-entry teardown
  bool close_deferred_ = false;
  std::string deferred_reason_;
  FrameHandler on_frame_;
  CloseHandler on_close_;
  BackpressureHandler on_backpressure_;
  DrainHandler on_drain_;
  ReadDoneHandler on_read_done_;
  ConnectionStats stats_;
};

}  // namespace xroute::transport
