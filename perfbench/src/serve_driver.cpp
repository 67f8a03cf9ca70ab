#include "serve_driver.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string_view>

namespace perfbench {

namespace {

/// A drive that makes no progress for this long has lost a reply.
constexpr double kStallSeconds = 30.0;

struct Conn {
  int fd = -1;
  bool tagged = false;
  std::size_t window = 1;
  std::size_t inflight = 0;
  std::string rbuf;
  std::string wbuf;
  std::size_t woff = 0;
  /// Lockstep only: bids in send order (replies come back in order).
  std::deque<std::size_t> order;
};

/// Sends what the socket takes; false on a dead connection.
bool flush(Conn& conn) {
  while (conn.woff < conn.wbuf.size()) {
    const ssize_t n = ::send(conn.fd, conn.wbuf.data() + conn.woff,
                             conn.wbuf.size() - conn.woff, MSG_NOSIGNAL);
    if (n > 0) {
      conn.woff += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;
  }
  conn.wbuf.clear();
  conn.woff = 0;
  return true;
}

std::string_view next_token(std::string_view& rest) {
  while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
  const std::size_t end = rest.find(' ');
  const std::string_view token = rest.substr(0, end);
  rest.remove_prefix(end == std::string_view::npos ? rest.size() : end);
  return token;
}

}  // namespace

std::string bid_body(const mbts::Task& task) {
  char bound[64] = "inf";
  if (task.value.bounded())
    std::snprintf(bound, sizeof(bound), "%.17g", task.value.penalty_bound());
  char out[256];
  std::snprintf(out, sizeof(out), "%.17g %.17g %.17g %s", task.runtime,
                task.value.max_value(), task.value.decay(), bound);
  return out;
}

std::vector<int> connect_loopback(std::uint16_t port, std::size_t count) {
  std::vector<int> fds;
  for (std::size_t i = 0; i < count; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) break;
    fds.push_back(fd);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
      break;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) break;
  }
  if (fds.size() != count || count == 0) close_all(fds);
  return fds;
}

void close_all(std::vector<int>& fds) {
  for (const int fd : fds) ::close(fd);
  fds.clear();
}

DriveResult drive_closed_loop(const std::vector<int>& fds,
                              const mbts::Trace& trace,
                              const std::vector<std::string>& bodies,
                              std::size_t window,
                              mbts::VirtualPacingClock& clock) {
  DriveResult result;
  const std::size_t n = trace.tasks.size();
  std::vector<Clock::time_point> sent(n);
  // 0 unsent, 1 in flight, 2 resolved.
  std::vector<std::uint8_t> state(n, 0);
  std::vector<Conn> conns(fds.size());
  for (std::size_t i = 0; i < fds.size(); ++i) {
    conns[i].fd = fds[i];
    conns[i].tagged = i > 0;
    conns[i].window = i > 0 ? window : 1;
  }
  result.pipelined_ms.reserve(n);

  std::size_t next = 0;
  std::size_t resolved = 0;
  Clock::time_point first_send{};
  Clock::time_point last_reply{};
  Clock::time_point last_progress = Clock::now();
  std::vector<pollfd> pfds(conns.size());
  char chunk[1 << 16];

  // Resolves bid `index` with the reply verb; false on a protocol breach.
  const auto resolve = [&](std::size_t index, bool ok, bool tagged,
                           Clock::time_point at) {
    if (index >= n || state[index] != 1) return false;
    state[index] = 2;
    ++resolved;
    if (!ok) {
      ++result.bad;
      return true;
    }
    ++result.answered;
    const double ms = 1e3 * seconds_between(sent[index], at);
    (tagged ? result.pipelined_ms : result.lockstep_ms).push_back(ms);
    return true;
  };

  while (resolved < n && result.error.empty()) {
    for (Conn& conn : conns) {
      while (conn.inflight < conn.window && next < n) {
        const double arrival = trace.tasks[next].arrival;
        const double now = clock.now();
        if (arrival > now) clock.advance(arrival - now);
        conn.wbuf += "BID ";
        if (conn.tagged) {
          conn.wbuf += 't';
          conn.wbuf += std::to_string(next);
          conn.wbuf += ' ';
        } else {
          conn.order.push_back(next);
        }
        conn.wbuf += bodies[next];
        conn.wbuf += '\n';
        sent[next] = Clock::now();
        if (next == 0) first_send = sent[0];
        state[next] = 1;
        ++conn.inflight;
        ++next;
      }
      if (!flush(conn)) result.error = "send failed";
    }
    if (!result.error.empty()) break;

    for (std::size_t i = 0; i < conns.size(); ++i) {
      pfds[i].fd = conns[i].fd;
      pfds[i].events = POLLIN;
      if (conns[i].woff < conns[i].wbuf.size()) pfds[i].events |= POLLOUT;
      pfds[i].revents = 0;
    }
    if (::poll(pfds.data(), pfds.size(), 1000) < 0 && errno != EINTR) {
      result.error = "poll failed";
      break;
    }
    const std::size_t resolved_before = resolved;
    for (std::size_t i = 0; i < conns.size() && result.error.empty(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Conn& conn = conns[i];
      for (;;) {
        const ssize_t got = ::recv(conn.fd, chunk, sizeof(chunk), 0);
        if (got > 0) {
          conn.rbuf.append(chunk, static_cast<std::size_t>(got));
          continue;
        }
        if (got < 0 && errno == EINTR) continue;
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        result.error = "server closed a connection";
        break;
      }
      const Clock::time_point at = Clock::now();
      std::size_t pos = 0;
      for (;;) {
        const std::size_t newline = conn.rbuf.find('\n', pos);
        if (newline == std::string::npos) break;
        std::string_view rest(conn.rbuf.data() + pos, newline - pos);
        pos = newline + 1;
        const std::string_view verb = next_token(rest);
        const bool ok = verb == "AWARD" || verb == "REJECT";
        std::size_t index = n;
        if (conn.tagged) {
          const std::string_view tag = next_token(rest);
          if (tag.size() > 1 && tag.front() == 't')
            index = std::strtoull(std::string(tag.substr(1)).c_str(),
                                  nullptr, 10);
        } else if (!conn.order.empty()) {
          index = conn.order.front();
          conn.order.pop_front();
        }
        if (!resolve(index, ok, conn.tagged, at)) {
          result.error = "reply to no bid in flight: " + std::string(verb);
          break;
        }
        --conn.inflight;
        last_reply = at;
      }
      conn.rbuf.erase(0, pos);
    }
    const Clock::time_point now = Clock::now();
    if (resolved != resolved_before) {
      last_progress = now;
    } else if (seconds_between(last_progress, now) > kStallSeconds) {
      result.error = "stalled: no reply for 30 s";
    }
  }
  result.bad += n - resolved;
  result.wall_s = seconds_between(first_send, last_reply);
  return result;
}

}  // namespace perfbench
