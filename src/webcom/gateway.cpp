#include "webcom/gateway.hpp"

#include "crypto/sha256.hpp"
#include "util/encoding.hpp"

namespace mwsec::webcom {

std::string SubmitRequest::canonical_body() const {
  // The graph bytes are hashed rather than embedded so the signed body
  // stays small and text-safe.
  return "submit\nsubmitter:" + submitter + "\ngraph:" + graph_name +
         "\nsha256:" + crypto::Sha256::hex(util::to_string(graph_bytes)) +
         "\ncredentials:\n" + credentials;
}

void SubmitRequest::sign(const crypto::Identity& identity) {
  submitter = identity.principal();
  signature = identity.sign(canonical_body());
}

mwsec::Status SubmitRequest::verify() const {
  if (signature.empty()) {
    return Error::make("submission is unsigned", "gateway");
  }
  if (!crypto::verify_message(submitter, canonical_body(), signature)) {
    return Error::make("submission signature invalid", "gateway");
  }
  return {};
}

util::Bytes SubmitRequest::encode() const {
  util::ByteWriter w;
  w.str(submitter);
  w.str(graph_name);
  w.blob(graph_bytes);
  w.str(credentials);
  w.str(signature);
  return w.take();
}

mwsec::Result<SubmitRequest> SubmitRequest::decode(
    const util::Bytes& payload) {
  util::ByteReader r(payload);
  SubmitRequest out;
  auto submitter = r.str();
  if (!submitter.ok()) return submitter.error();
  out.submitter = std::move(submitter).take();
  auto name = r.str();
  if (!name.ok()) return name.error();
  out.graph_name = std::move(name).take();
  auto graph = r.blob();
  if (!graph.ok()) return graph.error();
  out.graph_bytes = std::move(graph).take();
  auto creds = r.str();
  if (!creds.ok()) return creds.error();
  out.credentials = std::move(creds).take();
  auto sig = r.str();
  if (!sig.ok()) return sig.error();
  out.signature = std::move(sig).take();
  if (!r.exhausted()) return Error::make("trailing bytes", "wire");
  return out;
}

util::Bytes SubmitReply::encode() const {
  util::ByteWriter w;
  w.u8(ok ? 1 : 0);
  w.str(value);
  w.str(code);
  return w.take();
}

mwsec::Result<SubmitReply> SubmitReply::decode(const util::Bytes& payload) {
  util::ByteReader r(payload);
  SubmitReply out;
  auto ok = r.u8();
  if (!ok.ok()) return ok.error();
  out.ok = *ok != 0;
  auto value = r.str();
  if (!value.ok()) return value.error();
  out.value = std::move(value).take();
  auto code = r.str();
  if (!code.ok()) return code.error();
  out.code = std::move(code).take();
  return out;
}

Gateway::Gateway(net::Transport& network, std::string endpoint_name,
                 Master& master)
    : network_(network), endpoint_name_(std::move(endpoint_name)),
      master_(master) {}

Gateway::~Gateway() { stop(); }

mwsec::Status Gateway::start() {
  auto ep = network_.open(endpoint_name_);
  if (!ep.ok()) return ep.error();
  endpoint_ = std::move(ep).take();
  thread_ = std::jthread([this](std::stop_token st) {
    while (!st.stop_requested()) {
      serve();
      if (endpoint_->closed()) return;
    }
  });
  return {};
}

void Gateway::stop() {
  if (thread_.joinable()) {
    thread_.request_stop();
    if (endpoint_) endpoint_->close();
    thread_.join();
  }
}

Gateway::Stats Gateway::stats() const {
  std::scoped_lock lock(stats_mu_);
  return stats_;
}

void Gateway::serve() {
  auto message = endpoint_->receive(std::chrono::milliseconds(50));
  if (!message.has_value() || message->subject != kSubjectSubmit) return;

  SubmitReply reply;
  auto respond = [&] {
    endpoint_->send(message->from, kSubjectSubmitResult, reply.encode()).ok();
  };
  {
    std::scoped_lock lock(stats_mu_);
    ++stats_.submissions;
  }
  auto reject = [&](const std::string& why, const char* code) {
    reply.ok = false;
    reply.value = why;
    reply.code = code;
    std::scoped_lock lock(stats_mu_);
    ++stats_.rejected;
  };

  auto request = SubmitRequest::decode(message->payload);
  if (!request.ok()) {
    reject(request.error().message, "wire");
    respond();
    return;
  }
  if (auto s = request->verify(); !s.ok()) {
    reject(s.error().message, "gateway");
    respond();
    return;
  }

  // Authorise the submission itself.
  authz::Request submission;
  submission.principal = request->submitter;
  submission.attributes = {{"Graph", request->graph_name},
                           {"Operation", "submit"}};  // sorted by name
  if (!request->credentials.empty()) {
    auto bundle = keynote::Assertion::parse_bundle(request->credentials);
    if (!bundle.ok()) {
      reject(bundle.error().message, "gateway");
      respond();
      return;
    }
    submission.credentials = std::move(bundle).take();
  }
  if (!authz_.decide(submission).permitted()) {
    reject("submitter is not authorised to run " + request->graph_name,
           "denied");
    respond();
    return;
  }

  auto graph = decode_graph(request->graph_bytes);
  if (!graph.ok()) {
    reject(graph.error().message, "wire");
    respond();
    return;
  }
  auto value = master_.execute(*graph);
  if (!value.ok()) {
    reject(value.error().message,
           value.error().code.empty() ? "webcom" : value.error().code.c_str());
    respond();
    return;
  }
  reply.ok = true;
  reply.value = std::move(value).take();
  {
    std::scoped_lock lock(stats_mu_);
    ++stats_.accepted;
  }
  respond();
}

mwsec::Result<SubmitReply> submit_graph(net::Endpoint& from,
                                        const std::string& gateway_endpoint,
                                        const SubmitRequest& request,
                                        std::chrono::milliseconds timeout) {
  if (auto s = from.send(gateway_endpoint, kSubjectSubmit, request.encode());
      !s.ok()) {
    return s.error();
  }
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    auto message = from.receive(std::chrono::milliseconds(20));
    if (message.has_value() && message->subject == kSubjectSubmitResult) {
      return SubmitReply::decode(message->payload);
    }
  }
  return Error::make("gateway did not reply in time", "gateway");
}

}  // namespace mwsec::webcom
