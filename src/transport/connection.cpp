#include "transport/connection.hpp"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

namespace xroute::transport {

Connection::Connection(EventLoop* loop, int fd, Options options)
    : loop_(loop), fd_(fd), options_(options) {}

Connection::~Connection() {
  if (fd_ >= 0) {
    loop_->remove_fd(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

void Connection::start() {
  loop_->add_fd(fd_, kReadable,
                [this](std::uint32_t events) { on_io(events); });
}

void Connection::on_io(std::uint32_t events) {
  in_dispatch_ = true;
  if ((events & kWritable) && fd_ >= 0) handle_writable();
  // A reset or hang-up can arrive with the peer's last frames still
  // queued ahead of it: read them out first (the read sees the error and
  // defers the close), unless reads are paused.
  const bool readable =
      (events & kReadable) || ((events & kError) && read_enabled_);
  if (readable && fd_ >= 0 && !close_deferred_) {
    handle_readable();
    if (on_read_done_) on_read_done_();
  }
  if ((events & kError) && !close_deferred_) {
    close_deferred_ = true;
    deferred_reason_ = "socket error";
  }
  in_dispatch_ = false;
  if (close_deferred_) {
    close_deferred_ = false;
    close(deferred_reason_);
  }
}

void Connection::handle_readable() {
  std::uint8_t buffer[64 * 1024];
  // How the read ended the stream, if it did; applied after the frames.
  const char* ended = nullptr;
  for (;;) {
    ssize_t n = ::read(fd_, buffer, sizeof(buffer));
    if (n > 0) {
      stats_.bytes_in.fetch_add(static_cast<std::uint64_t>(n),
                                std::memory_order_relaxed);
      decoder_.feed(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      ended = "peer closed";
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    ended = "read error";
    break;
  }
  // Surface every complete frame first, whatever ended the read: the bytes
  // before a close or a reset are valid traffic. Only a decode error or
  // the handler's own close() stops early.
  while (!close_deferred_) {
    wire::Decoded decoded = decoder_.next();
    if (decoded.status == wire::DecodeStatus::kNeedMore) break;
    if (!decoded.ok()) {
      close_deferred_ = true;
      deferred_reason_ =
          std::string("wire decode error: ") + to_string(decoded.status);
      break;
    }
    stats_.frames_in.fetch_add(1, std::memory_order_relaxed);
    if (on_frame_) on_frame_(std::move(decoded));
    if (fd_ < 0) return;  // handler closed us outside dispatch guard
  }
  if (ended && !close_deferred_) {
    close_deferred_ = true;
    deferred_reason_ = ended;
  }
}

void Connection::handle_writable() {
  bool had_pending = !send_queue_.empty();
  while (!send_queue_.empty()) {
    const Outgoing& head = send_queue_.front();
    // MSG_NOSIGNAL: a peer that closed with frames still queued must
    // surface as EPIPE (the "write error" close below), not as a SIGPIPE
    // that kills the process.
    ssize_t n = ::send(fd_, head.data() + send_offset_,
                       head.size() - send_offset_, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_deferred_ = true;
      deferred_reason_ = "write error";
      return;
    }
    stats_.bytes_out.fetch_add(static_cast<std::uint64_t>(n),
                               std::memory_order_relaxed);
    send_offset_ += static_cast<std::size_t>(n);
    pending_bytes_ -= static_cast<std::size_t>(n);
    if (send_offset_ == head.size()) {
      send_queue_.pop_front();
      send_offset_ = 0;
      stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
    }
  }
  bool want_write = !send_queue_.empty();
  if (want_write != want_write_) {
    want_write_ = want_write;
    update_interest();
  }
  update_backpressure();
  if (had_pending && send_queue_.empty() && on_drain_) on_drain_();
}

bool Connection::send(std::vector<std::uint8_t> frame) {
  Outgoing out;
  out.owned = std::move(frame);
  return enqueue(std::move(out));
}

bool Connection::send_shared(SharedFrame frame) {
  if (!frame) return fd_ >= 0;
  stats_.shared_bytes_out.fetch_add(frame->size(), std::memory_order_relaxed);
  Outgoing out;
  out.shared = std::move(frame);
  return enqueue(std::move(out));
}

bool Connection::enqueue(Outgoing out) {
  if (fd_ < 0) return false;
  pending_bytes_ += out.size();
  send_queue_.push_back(std::move(out));
  if (!want_write_) {
    // Opportunistic flush: most frames go straight to the socket without
    // a poller round trip.
    bool was_dispatching = in_dispatch_;
    in_dispatch_ = true;
    handle_writable();
    in_dispatch_ = was_dispatching;
    if (close_deferred_ && !was_dispatching) {
      close_deferred_ = false;
      close(deferred_reason_);
      return false;
    }
  } else {
    update_backpressure();
  }
  return fd_ >= 0;
}

void Connection::set_read_enabled(bool enabled) {
  if (fd_ < 0 || enabled == read_enabled_) return;
  read_enabled_ = enabled;
  update_interest();
}

void Connection::update_interest() {
  if (fd_ < 0) return;
  std::uint32_t interest = 0;
  if (read_enabled_) interest |= kReadable;
  if (want_write_) interest |= kWritable;
  loop_->set_interest(fd_, interest);
}

void Connection::update_backpressure() {
  if (!backpressured_ && pending_bytes_ > options_.high_watermark) {
    backpressured_ = true;
    stats_.backpressure_events.fetch_add(1, std::memory_order_relaxed);
    if (on_backpressure_) on_backpressure_(true);
  } else if (backpressured_ && pending_bytes_ <= options_.low_watermark) {
    backpressured_ = false;
    if (on_backpressure_) on_backpressure_(false);
  }
}

void Connection::close(const std::string& reason) {
  if (fd_ < 0) return;
  if (in_dispatch_) {
    close_deferred_ = true;
    deferred_reason_ = reason;
    return;
  }
  loop_->remove_fd(fd_);
  ::close(fd_);
  fd_ = -1;
  if (on_close_) {
    // The handler commonly destroys this Connection: move it out first and
    // touch no members afterwards.
    CloseHandler handler = std::move(on_close_);
    handler(reason);
  }
}

}  // namespace xroute::transport
