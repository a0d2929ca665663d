// The WebCom submission gateway: Figure 3's left edge, where *untrusted
// principals* connect and ask a Secure WebCom environment to execute an
// operation. A submitter ships a signed, serialised condensed graph plus
// supporting credentials; the gateway authorises the submission through
// its KeyNote store (attributes: app_domain=WebCom, Operation=submit,
// plus the graph's name), executes it on the attached master, and
// returns the exit value.
#pragma once

#include <thread>

#include "keynote/compiled_store.hpp"
#include "net/transport.hpp"
#include "webcom/graph_io.hpp"
#include "webcom/scheduler.hpp"

namespace mwsec::webcom {

inline constexpr const char* kSubjectSubmit = "submit-graph";
inline constexpr const char* kSubjectSubmitResult = "submit-result";

struct SubmitRequest {
  std::string submitter;    ///< principal of the requesting key
  std::string graph_name;   ///< application name (for mediation/audit)
  util::Bytes graph_bytes;  ///< encode_graph() payload
  std::string credentials;  ///< assertion bundle text
  std::string signature;    ///< submitter's signature over canonical body

  std::string canonical_body() const;
  void sign(const crypto::Identity& identity);
  mwsec::Status verify() const;
  util::Bytes encode() const;
  static mwsec::Result<SubmitRequest> decode(const util::Bytes& payload);
};

struct SubmitReply {
  bool ok = false;
  std::string value;  ///< exit value or diagnostic
  std::string code;

  util::Bytes encode() const;
  static mwsec::Result<SubmitReply> decode(const util::Bytes& payload);
};

class Gateway {
 public:
  /// The gateway executes submissions on `master` (which it does not own).
  Gateway(net::Transport& network, std::string endpoint_name, Master& master);
  ~Gateway();

  /// Trust root: who may submit what. Queried with attributes
  /// app_domain="WebCom", Operation="submit", Graph=<graph_name>.
  keynote::CompiledStore& store() { return store_; }

  mwsec::Status start();
  void stop();

  struct Stats {
    std::uint64_t submissions = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
  };
  Stats stats() const;

 private:
  void serve();

  net::Transport& network_;
  std::string endpoint_name_;
  Master& master_;
  keynote::CompiledStore store_;
  std::shared_ptr<net::Endpoint> endpoint_;
  std::jthread thread_;
  mutable std::mutex stats_mu_;
  Stats stats_;
};

/// Client helper: submit and await the result.
mwsec::Result<SubmitReply> submit_graph(
    net::Endpoint& from, const std::string& gateway_endpoint,
    const SubmitRequest& request,
    std::chrono::milliseconds timeout = std::chrono::milliseconds(2000));

}  // namespace mwsec::webcom
