#include "net/socket_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

#include "net/wire.hpp"

namespace now::net {

namespace {

/// Socket frame kinds; kClose is the largest, and next_frame rejects any
/// kind byte above it.
enum FrameKind : std::uint8_t {
  kData = 0,
  kHello = 1,
  kWelcome = 2,
  kDone = 3,
  kGo = 4,
  kOpen = 5,
  kClose = 6,
};

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

[[nodiscard]] std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

[[nodiscard]] std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

/// Assembles one socket frame: u32 length | u8 kind | body.
[[nodiscard]] std::vector<std::uint8_t> make_frame(
    FrameKind kind, std::span<const std::uint8_t> body) {
  std::vector<std::uint8_t> frame;
  frame.reserve(5 + body.size());
  const auto len = static_cast<std::uint32_t>(1 + body.size());
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  }
  frame.push_back(static_cast<std::uint8_t>(kind));
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

[[nodiscard]] std::vector<std::uint8_t> make_u64_frame(FrameKind kind,
                                                       std::uint64_t value) {
  std::vector<std::uint8_t> body;
  put_u64(body, value);
  return make_frame(kind, body);
}

/// Blocking full write; false on any error (peer gone). MSG_NOSIGNAL keeps
/// a dead peer from killing the process with SIGPIPE.
[[nodiscard]] bool write_all(int fd, const std::uint8_t* data,
                             std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

[[nodiscard]] bool write_frame(int fd, const std::vector<std::uint8_t>& f) {
  return write_all(fd, f.data(), f.size());
}

struct ParsedFrame {
  FrameKind kind;
  std::span<const std::uint8_t> body;
};

/// Largest legitimate length prefix (kind byte + body). A control body is
/// one u64 and a DATA body is one wire frame, which encode_frame never
/// emits above kMaxFrameBytes. A larger prefix can only come from a broken
/// or hostile peer; waiting for its body would buffer without bound.
constexpr std::uint32_t kMaxFrameLength =
    static_cast<std::uint32_t>(1 + kMaxFrameBytes);

/// Extracts the next complete frame from `buf` starting at `offset`, or
/// returns false if more bytes are needed. Advances `offset` past the frame.
/// Throws TransportError on a length prefix outside [1, kMaxFrameLength]
/// or a kind byte that names no FrameKind.
[[nodiscard]] bool next_frame(const std::vector<std::uint8_t>& buf,
                              std::size_t& offset, ParsedFrame& out) {
  if (buf.size() - offset < 4) return false;
  const std::uint32_t len = get_u32(buf.data() + offset);
  if (len < 1) throw TransportError("socket frame with empty body");
  if (len > kMaxFrameLength) {
    throw TransportError("socket frame length " + std::to_string(len) +
                         " exceeds the frame bound");
  }
  if (buf.size() - offset < 4 + static_cast<std::size_t>(len)) return false;
  const std::uint8_t kind = buf[offset + 4];
  if (kind > kClose) {
    throw TransportError("socket frame kind " + std::to_string(kind) +
                         " is not a known frame kind");
  }
  out.kind = static_cast<FrameKind>(kind);
  out.body = std::span<const std::uint8_t>(buf.data() + offset + 5, len - 1);
  offset += 4 + static_cast<std::size_t>(len);
  return true;
}

void compact(std::vector<std::uint8_t>& buf, std::size_t offset) {
  if (offset == 0) return;
  buf.erase(buf.begin(),
            buf.begin() + static_cast<std::ptrdiff_t>(offset));
}

/// Blocking read of at least one more byte into `buf`; false on EOF.
[[nodiscard]] bool read_some_blocking(int fd, std::vector<std::uint8_t>& buf) {
  std::uint8_t chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    buf.insert(buf.end(), chunk, chunk + n);
    return true;
  }
}

void set_nodelay(int fd) {
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

[[nodiscard]] std::uint64_t body_u64(std::span<const std::uint8_t> body) {
  if (body.size() != 8) throw TransportError("malformed control frame");
  return get_u64(body.data());
}

}  // namespace

// ---------------------------------------------------------------------------
// SocketHub

struct SocketHub::Conn {
  int fd = -1;
  std::uint64_t process_id = 0;
  std::size_t join_round = 0;
  bool done = false;  // sent DONE for the barrier in progress
  bool dead = false;
  std::vector<std::uint8_t> rbuf;
};

struct SocketHub::Endpoint {
  NodeId id;
  bool live = false;
  bool local = false;       // owned by the hub process itself
  std::size_t conn = 0;     // owner index into conns when !local
};

struct SocketHub::Impl {
  int listen_fd = -1;
  std::size_t expected_spokes = 0;
  std::vector<Conn> conns;            // never erased; dead conns stay
  std::vector<Endpoint> endpoints;    // sorted by id
  struct Box {
    NodeId id;
    std::vector<Message> ready;
  };
  std::vector<Box> boxes;             // hub-local mailboxes, sorted by id
  std::vector<Message> round_msgs;    // this round's traffic (all senders)
  std::vector<std::uint64_t> dead_since_drain;

  [[nodiscard]] Endpoint* find_endpoint(NodeId id) {
    const auto it = std::lower_bound(
        endpoints.begin(), endpoints.end(), id,
        [](const Endpoint& e, NodeId key) { return e.id < key; });
    return (it != endpoints.end() && it->id == id) ? &*it : nullptr;
  }

  [[nodiscard]] Box* find_box(NodeId id) {
    const auto it = std::lower_bound(
        boxes.begin(), boxes.end(), id,
        [](const Box& b, NodeId key) { return b.id < key; });
    return (it != boxes.end() && it->id == id) ? &*it : nullptr;
  }

  Endpoint& upsert_endpoint(NodeId id) {
    const auto it = std::lower_bound(
        endpoints.begin(), endpoints.end(), id,
        [](const Endpoint& e, NodeId key) { return e.id < key; });
    if (it != endpoints.end() && it->id == id) return *it;
    return *endpoints.insert(it, Endpoint{id, false, false, 0});
  }

  void broadcast_control(FrameKind kind, std::uint64_t value,
                         std::size_t except_conn) {
    const auto frame = make_u64_frame(kind, value);
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (conns[i].dead || i == except_conn) continue;
      if (!write_frame(conns[i].fd, frame)) mark_dead(i);
    }
  }

  void mark_dead(std::size_t conn_index) {
    Conn& c = conns[conn_index];
    if (c.dead) return;
    c.dead = true;
    if (c.fd >= 0) {
      ::close(c.fd);
      c.fd = -1;
    }
    dead_since_drain.push_back(c.process_id);
    // Departure detector: every endpoint the process owned is gone.
    for (Endpoint& e : endpoints) {
      if (!e.local && e.live && e.conn == conn_index) {
        e.live = false;
        broadcast_control(kClose, e.id.value(), conn_index);
      }
    }
  }

  /// Handshakes a newly accepted fd; `join` is the round the spoke may
  /// first participate in.
  void admit(int fd, std::size_t join) {
    set_nodelay(fd);
    Conn conn;
    conn.fd = fd;
    conn.join_round = join;
    // Blocking read of the HELLO frame (spokes send it immediately).
    std::size_t offset = 0;
    ParsedFrame frame{};
    try {
      while (!next_frame(conn.rbuf, offset, frame)) {
        if (!read_some_blocking(fd, conn.rbuf)) {
          ::close(fd);
          return;  // died during handshake; never joined
        }
      }
    } catch (const TransportError&) {
      ::close(fd);
      throw;
    }
    compact(conn.rbuf, offset);
    if (frame.kind != kHello) {
      ::close(fd);
      throw TransportError("spoke handshake: expected HELLO");
    }
    conn.process_id = body_u64(frame.body);
    if (!write_frame(fd, make_u64_frame(kWelcome, join))) {
      ::close(fd);
      return;
    }
    conns.push_back(std::move(conn));
  }

  /// Applies every complete frame in conns[i]'s read buffer. Frames are
  /// processed in connection order, which is the sender's send order (TCP
  /// FIFO) — the property the delivery-order argument rests on.
  void drain_conn_frames(std::size_t i, std::size_t round) {
    Conn& c = conns[i];
    std::size_t offset = 0;
    ParsedFrame frame{};
    while (!c.dead && next_frame(c.rbuf, offset, frame)) {
      switch (frame.kind) {
        case kData:
          round_msgs.push_back(decode_frame(frame.body));
          break;
        case kDone: {
          const std::uint64_t r = body_u64(frame.body);
          if (r != round) {
            throw TransportError("barrier desync: DONE for wrong round");
          }
          c.done = true;
          break;
        }
        case kOpen: {
          const NodeId id{body_u64(frame.body)};
          Endpoint& e = upsert_endpoint(id);
          if (e.live) {
            throw TransportError("endpoint opened twice: " +
                                 std::to_string(id.value()));
          }
          e.live = true;
          e.local = false;
          e.conn = i;
          broadcast_control(kOpen, id.value(), i);
          break;
        }
        case kClose: {
          const NodeId id{body_u64(frame.body)};
          if (Endpoint* e = find_endpoint(id); e != nullptr && e->live &&
                                               !e->local && e->conn == i) {
            e->live = false;
            broadcast_control(kClose, id.value(), i);
          }
          break;
        }
        default:
          throw TransportError("unexpected frame kind from spoke");
      }
    }
    compact(c.rbuf, offset);
  }

  [[nodiscard]] bool barrier_complete(std::size_t round) const {
    for (const Conn& c : conns) {
      if (c.dead || c.join_round > round) continue;
      if (!c.done) return false;
    }
    return true;
  }
};

std::unique_ptr<SocketHub> SocketHub::listen(std::size_t expected_spokes) {
  auto hub = std::unique_ptr<SocketHub>(new SocketHub());
  hub->impl_ = std::make_unique<Impl>();
  hub->impl_->expected_spokes = expected_spokes;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw TransportError("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 64) < 0) {
    ::close(fd);
    throw TransportError("bind/listen failed");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(fd);
    throw TransportError("getsockname failed");
  }
  hub->impl_->listen_fd = fd;
  hub->port_ = ntohs(addr.sin_port);
  return hub;
}

SocketHub::~SocketHub() {
  if (!impl_) return;
  for (Conn& c : impl_->conns) {
    if (c.fd >= 0) ::close(c.fd);
  }
  if (impl_->listen_fd >= 0) ::close(impl_->listen_fd);
}

void SocketHub::accept_initial() {
  auto& im = *impl_;
  while (im.conns.size() < im.expected_spokes) {
    const int fd = ::accept(im.listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      throw TransportError("accept failed");
    }
    im.admit(fd, /*join=*/0);
  }
}

void SocketHub::open_endpoint(NodeId id) {
  auto& im = *impl_;
  Endpoint& e = im.upsert_endpoint(id);
  if (e.live) {
    throw TransportError("endpoint opened twice: " +
                         std::to_string(id.value()));
  }
  e.live = true;
  e.local = true;
  const auto it = std::lower_bound(
      im.boxes.begin(), im.boxes.end(), id,
      [](const Impl::Box& b, NodeId key) { return b.id < key; });
  if (it == im.boxes.end() || it->id != id) {
    im.boxes.insert(it, Impl::Box{id, {}});
  }
  im.broadcast_control(kOpen, id.value(), im.conns.size());
}

bool SocketHub::close_endpoint(NodeId id) {
  auto& im = *impl_;
  Endpoint* e = im.find_endpoint(id);
  if (e == nullptr || !e->live || !e->local) return false;
  e->live = false;
  im.broadcast_control(kClose, id.value(), im.conns.size());
  return true;
}

bool SocketHub::is_live(NodeId id) const {
  const auto& eps = impl_->endpoints;
  const auto it = std::lower_bound(
      eps.begin(), eps.end(), id,
      [](const Endpoint& e, NodeId key) { return e.id < key; });
  return it != eps.end() && it->id == id && it->live;
}

void SocketHub::send(Message msg) {
  impl_->round_msgs.push_back(std::move(msg));
}

void SocketHub::end_round(std::size_t round) {
  auto& im = *impl_;
  for (auto& box : im.boxes) box.ready.clear();
  for (Conn& c : im.conns) c.done = false;

  // Collect until every participating spoke reached the barrier. New
  // connections are admitted along the way (join round = round + 1).
  std::vector<pollfd> fds;
  std::vector<std::size_t> conn_of_fd;  // fds[k] belongs to conns[...]
  while (!im.barrier_complete(round)) {
    fds.clear();
    conn_of_fd.clear();
    fds.push_back(pollfd{im.listen_fd, POLLIN, 0});
    conn_of_fd.push_back(im.conns.size());  // sentinel for the listener
    for (std::size_t i = 0; i < im.conns.size(); ++i) {
      if (!im.conns[i].dead) {
        fds.push_back(pollfd{im.conns[i].fd, POLLIN, 0});
        conn_of_fd.push_back(i);
      }
    }
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      throw TransportError("poll failed");
    }
    if ((fds[0].revents & POLLIN) != 0) {
      const int fd = ::accept(im.listen_fd, nullptr, nullptr);
      if (fd >= 0) im.admit(fd, round + 1);
    }
    for (std::size_t k = 1; k < fds.size(); ++k) {
      const std::size_t i = conn_of_fd[k];
      Conn& c = im.conns[i];
      // A conn can be marked dead by a failed broadcast while an earlier
      // entry of this sweep was being drained.
      if (c.dead || fds[k].revents == 0) continue;
      // Drain everything available without blocking.
      bool eof = false;
      std::uint8_t chunk[4096];
      while (true) {
        const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, MSG_DONTWAIT);
        if (n > 0) {
          c.rbuf.insert(c.rbuf.end(), chunk, chunk + n);
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        eof = true;
        break;
      }
      im.drain_conn_frames(i, round);
      if (eof) im.mark_dead(i);
    }
  }

  // Deliver in the in-process order: ascending sender id, send order
  // preserved within a sender (TCP FIFO per connection + stable sort).
  std::stable_sort(im.round_msgs.begin(), im.round_msgs.end(),
                   [](const Message& a, const Message& b) {
                     return a.from.value() < b.from.value();
                   });
  for (Message& msg : im.round_msgs) {
    const Endpoint* e = im.find_endpoint(msg.to);
    if (e == nullptr || !e->live) continue;  // dropped; sender was charged
    if (e->local) {
      if (Impl::Box* box = im.find_box(msg.to)) {
        box->ready.push_back(std::move(msg));
      }
      continue;
    }
    Conn& owner = im.conns[e->conn];
    if (owner.dead) continue;
    const auto bytes = encode_frame(msg);
    if (!write_frame(owner.fd, make_frame(kData, bytes))) {
      im.mark_dead(e->conn);
    }
  }
  im.round_msgs.clear();

  // Release the barrier. Spokes admitted this round consume GO(round) as
  // their start signal (they pre-read up to it before joining).
  im.broadcast_control(kGo, round, im.conns.size());
}

void SocketHub::poll(NodeId id, std::vector<Message>& out) {
  out.clear();
  if (Impl::Box* box = impl_->find_box(id)) std::swap(out, box->ready);
}

std::vector<std::uint64_t> SocketHub::drain_dead_processes() {
  return std::exchange(impl_->dead_since_drain, {});
}

std::size_t SocketHub::num_live_spokes() const {
  std::size_t n = 0;
  for (const Conn& c : impl_->conns) {
    if (!c.dead) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// SocketSpoke

struct SocketSpoke::Impl {
  int fd = -1;
  std::size_t join_round = 0;
  std::vector<std::uint8_t> rbuf;
  struct Box {
    NodeId id;
    std::vector<Message> ready;
  };
  std::vector<Box> boxes;  // sorted by id
  std::vector<NodeId> remote_closed;  // sorted; endpoints reported closed

  [[nodiscard]] Box* find_box(NodeId id) {
    const auto it = std::lower_bound(
        boxes.begin(), boxes.end(), id,
        [](const Box& b, NodeId key) { return b.id < key; });
    return (it != boxes.end() && it->id == id) ? &*it : nullptr;
  }

  void note_open(NodeId id) {
    const auto it = std::lower_bound(remote_closed.begin(),
                                     remote_closed.end(), id);
    if (it != remote_closed.end() && *it == id) remote_closed.erase(it);
  }

  void note_close(NodeId id) {
    const auto it = std::lower_bound(remote_closed.begin(),
                                     remote_closed.end(), id);
    if (it == remote_closed.end() || *it != id) {
      remote_closed.insert(it, id);
    }
  }

  void send_control(FrameKind kind, std::uint64_t value) {
    if (!write_frame(fd, make_u64_frame(kind, value))) {
      throw TransportError("hub connection lost");
    }
  }

  /// Blocking-reads the next frame.
  void read_frame(ParsedFrame& out) {
    std::size_t offset = 0;
    while (!next_frame(rbuf, offset, out)) {
      if (!read_some_blocking(fd, rbuf)) {
        throw TransportError("hub closed connection");
      }
    }
    // The span in `out` points into rbuf; the caller must finish with it
    // before the next read_frame. Compact afterwards via consumed_.
    consumed_ = offset;
  }

  void consume() { compact(rbuf, std::exchange(consumed_, 0)); }

 private:
  std::size_t consumed_ = 0;
};

std::unique_ptr<SocketSpoke> SocketSpoke::connect(std::uint16_t port,
                                                  std::uint64_t process_id) {
  auto spoke = std::unique_ptr<SocketSpoke>(new SocketSpoke());
  spoke->impl_ = std::make_unique<Impl>();
  auto& im = *spoke->impl_;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw TransportError("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) < 0) {
    ::close(fd);
    throw TransportError("connect to hub failed");
  }
  set_nodelay(fd);
  im.fd = fd;
  im.send_control(kHello, process_id);

  ParsedFrame frame{};
  im.read_frame(frame);
  if (frame.kind != kWelcome) {
    throw TransportError("handshake: expected WELCOME");
  }
  im.join_round = static_cast<std::size_t>(body_u64(frame.body));
  im.consume();

  // Mid-run admission: the hub admitted us during the barrier of round
  // join_round - 1 and releases it with GO(join_round - 1). Replay the
  // liveness traffic up to that point so round join_round starts from the
  // replicated state. No data can arrive yet (our endpoints open later).
  if (im.join_round > 0) {
    const std::uint64_t start_go = im.join_round - 1;
    while (true) {
      im.read_frame(frame);
      bool done = false;
      switch (frame.kind) {
        case kOpen:
          im.note_open(NodeId{body_u64(frame.body)});
          break;
        case kClose:
          im.note_close(NodeId{body_u64(frame.body)});
          break;
        case kGo:
          if (body_u64(frame.body) != start_go) {
            throw TransportError("admission desync: unexpected GO round");
          }
          done = true;
          break;
        default:
          throw TransportError("unexpected frame before join round");
      }
      im.consume();
      if (done) break;
    }
  }
  return spoke;
}

SocketSpoke::~SocketSpoke() {
  if (impl_ && impl_->fd >= 0) ::close(impl_->fd);
}

void SocketSpoke::open_endpoint(NodeId id) {
  auto& im = *impl_;
  const auto it = std::lower_bound(
      im.boxes.begin(), im.boxes.end(), id,
      [](const Impl::Box& b, NodeId key) { return b.id < key; });
  if (it != im.boxes.end() && it->id == id) {
    throw TransportError("endpoint opened twice: " +
                         std::to_string(id.value()));
  }
  im.boxes.insert(it, Impl::Box{id, {}});
  im.send_control(kOpen, id.value());
}

bool SocketSpoke::close_endpoint(NodeId id) {
  auto& im = *impl_;
  const auto it = std::lower_bound(
      im.boxes.begin(), im.boxes.end(), id,
      [](const Impl::Box& b, NodeId key) { return b.id < key; });
  if (it == im.boxes.end() || it->id != id) return false;
  im.boxes.erase(it);
  im.send_control(kClose, id.value());
  return true;
}

bool SocketSpoke::is_live(NodeId id) const {
  auto& im = *impl_;
  const auto box = std::lower_bound(
      im.boxes.begin(), im.boxes.end(), id,
      [](const Impl::Box& b, NodeId key) { return b.id < key; });
  if (box != im.boxes.end() && box->id == id) return true;
  // Remote endpoints: replicated state, one round of lag; unknown ids
  // default to live (the hub is the authority — DESIGN.md §12).
  const auto it = std::lower_bound(im.remote_closed.begin(),
                                   im.remote_closed.end(), id);
  return it == im.remote_closed.end() || *it != id;
}

void SocketSpoke::send(Message msg) {
  const auto bytes = encode_frame(msg);
  if (!write_frame(impl_->fd, make_frame(kData, bytes))) {
    throw TransportError("hub connection lost");
  }
}

void SocketSpoke::end_round(std::size_t round) {
  auto& im = *impl_;
  im.send_control(kDone, round);
  ParsedFrame frame{};
  while (true) {
    im.read_frame(frame);
    bool released = false;
    switch (frame.kind) {
      case kData: {
        Message msg = decode_frame(frame.body);
        if (Impl::Box* box = im.find_box(msg.to)) {
          box->ready.push_back(std::move(msg));  // polled next round
        }
        break;
      }
      case kOpen:
        im.note_open(NodeId{body_u64(frame.body)});
        break;
      case kClose:
        im.note_close(NodeId{body_u64(frame.body)});
        break;
      case kGo:
        if (body_u64(frame.body) != round) {
          throw TransportError("barrier desync: unexpected GO round");
        }
        released = true;
        break;
      default:
        throw TransportError("unexpected frame kind from hub");
    }
    im.consume();
    if (released) return;
  }
}

void SocketSpoke::poll(NodeId id, std::vector<Message>& out) {
  out.clear();
  if (Impl::Box* box = impl_->find_box(id)) std::swap(out, box->ready);
}

std::size_t SocketSpoke::join_round() const { return impl_->join_round; }

}  // namespace now::net
