#include "browser/client.h"

#include "crl/crl.h"
#include "ocsp/ocsp.h"

namespace rev::browser {

Client::Client(Policy policy, net::SimNet* net, x509::CertPool roots)
    : policy_(std::move(policy)), net_(net), roots_(std::move(roots)) {}

namespace {

// Result of checking one chain element via one protocol.
enum class ElementStatus {
  kGood,
  kRevoked,
  kUnknown,      // OCSP responder answered `unknown`
  kUnavailable,  // could not obtain the information
};

bool Attempted(CheckLevel level, bool ev) {
  return level == CheckLevel::kAlways ||
         (level == CheckLevel::kEvOnly && ev);
}

// Browser revocation fetches are single-attempt (see Client::policy()).
const net::RetryPolicy kFetchRetry = net::RetryPolicy::None();

struct CheckContext {
  net::SimNet* net = nullptr;
  util::Timestamp now = 0;
  VisitOutcome* outcome = nullptr;
};

void Account(CheckContext& ctx, const net::RetryResult& fetch) {
  ctx.outcome->revocation_seconds += fetch.total_elapsed_seconds;
  ctx.outcome->revocation_bytes += fetch.total_bytes;
}

// Downloads and consults the CRL(s) listed in `cert`.
ElementStatus CheckViaCrl(CheckContext& ctx, const x509::Certificate& cert,
                          const crypto::PublicKey& issuer_key) {
  bool any_fetched = false;
  for (const std::string& url : cert.tbs.crl_urls) {
    ++ctx.outcome->crl_fetches;
    // The view aliases the body, which the fetch result moves along but
    // never copies.
    std::optional<crl::CrlView> crl;
    const net::RetryResult fetch = net::GetWithRetry(
        *ctx.net, url, ctx.now, kFetchRetry, /*timeout_seconds=*/10.0,
        [&crl](const net::HttpResponse& response) {
          crl = crl::ParseCrlView(response.body);
          return crl.has_value();
        });
    Account(ctx, fetch);
    if (!fetch.ok() || !crl::VerifyCrlSignature(*crl, issuer_key)) continue;
    any_fetched = true;
    if (crl->Find(cert.tbs.serial)) return ElementStatus::kRevoked;
  }
  return any_fetched ? ElementStatus::kGood : ElementStatus::kUnavailable;
}

// Queries the OCSP responder(s) listed in `cert`.
ElementStatus CheckViaOcsp(CheckContext& ctx, const x509::Certificate& cert,
                           const x509::Certificate& issuer,
                           const crypto::PublicKey& issuer_key) {
  for (const std::string& url : cert.tbs.ocsp_urls) {
    ++ctx.outcome->ocsp_fetches;
    ocsp::OcspRequest request;
    request.cert_ids = {ocsp::MakeCertId(issuer, cert.tbs.serial)};
    // Browsers favor the GET form (§6.2) — cacheable by intermediaries.
    std::string get_url = url;
    if (!get_url.empty() && get_url.back() == '/') get_url.pop_back();
    get_url += ocsp::OcspGetPath(request);
    const net::RetryResult fetch = net::GetWithRetry(
        *ctx.net, get_url, ctx.now, kFetchRetry, /*timeout_seconds=*/10.0,
        [](const net::HttpResponse& response) {
          return ocsp::ParseOcspResponse(response.body).has_value();
        });
    Account(ctx, fetch);
    if (!fetch.ok()) continue;
    auto response = ocsp::ParseOcspResponse(fetch.fetch.response.body);
    if (!response || response->status != ocsp::ResponseStatus::kSuccessful)
      continue;
    if (!ocsp::VerifyOcspSignature(*response, issuer_key)) continue;
    switch (response->single.status) {
      case ocsp::CertStatus::kGood: return ElementStatus::kGood;
      case ocsp::CertStatus::kRevoked: return ElementStatus::kRevoked;
      case ocsp::CertStatus::kUnknown: return ElementStatus::kUnknown;
    }
  }
  return ElementStatus::kUnavailable;
}

}  // namespace

VisitOutcome Client::Visit(tls::TlsServer& server, util::Timestamp now) {
  VisitOutcome outcome;

  tls::ClientHello hello;
  hello.status_request = policy_.request_staple;
  hello.status_request_v2 = policy_.request_multi_staple;

  const tls::ServerHello server_hello = server.Handshake(hello, now);
  if (server_hello.chain_der.empty()) {
    outcome.decision = VisitOutcome::Decision::kRejected;
    outcome.reject_reason = "no certificate";
    return outcome;
  }

  // Parse the advertised chain.
  std::vector<x509::CertPtr> presented;
  for (const Bytes& der : server_hello.chain_der) {
    auto cert = x509::ParseCertificate(der);
    if (!cert) {
      outcome.decision = VisitOutcome::Decision::kRejected;
      outcome.reject_reason = "unparseable certificate";
      return outcome;
    }
    presented.push_back(
        std::make_shared<const x509::Certificate>(*std::move(cert)));
  }

  // Path validation against the trust store.
  x509::CertPool intermediates;
  for (std::size_t i = 1; i < presented.size(); ++i)
    intermediates.Add(presented[i]);
  x509::VerifyOptions verify_options;
  verify_options.at = now;
  const x509::VerifyResult path =
      x509::VerifyChain(presented[0], intermediates, roots_, verify_options);
  if (!path.ok()) {
    outcome.decision = VisitOutcome::Decision::kRejected;
    outcome.reject_reason =
        std::string("chain: ") + x509::VerifyStatusName(path.status);
    return outcome;
  }
  outcome.chain_valid = true;

  // CRLSet consultation happens before any network checks: it is free
  // (pushed out-of-band) and applies to every certificate regardless of EV.
  if (policy_.use_crlset && crlset_ != nullptr) {
    for (std::size_t i = 0; i + 1 < path.chain.size(); ++i) {
      const x509::Certificate& cert = *path.chain[i];
      const Bytes parent = path.chain[i + 1]->SubjectSpkiSha256();
      if (crlset_->IsRevoked(parent, cert.tbs.serial)) {
        outcome.crlset_hit = true;
        outcome.decision = VisitOutcome::Decision::kRejected;
        outcome.reject_reason =
            "CRLSet: revoked (position " + std::to_string(i) + ")";
        return outcome;
      }
      if (crlset_->IsBlockedSpki(cert.SubjectSpkiSha256())) {
        outcome.crlset_hit = true;
        if (!policy_.blocked_spki_bug) {
          outcome.decision = VisitOutcome::Decision::kRejected;
          outcome.reject_reason = "CRLSet: blocked SPKI";
          return outcome;
        }
        // Chrome 44's bug: the URL bar says revoked, the page loads anyway.
      }
    }
  }

  // OneCRL: intermediates only (§7 footnote 24).
  if (policy_.use_onecrl && onecrl_ != nullptr) {
    for (std::size_t i = 1; i + 1 < path.chain.size(); ++i) {
      if (onecrl_->Blocks(*path.chain[i])) {
        outcome.decision = VisitOutcome::Decision::kRejected;
        outcome.reject_reason =
            "OneCRL: blocked intermediate (position " + std::to_string(i) + ")";
        return outcome;
      }
    }
  }

  const bool ev = path.chain.front()->IsEv();
  // Chain elements needing revocation checks: everything except the root.
  const std::size_t elements = path.chain.size() - 1;
  const std::size_t num_intermediates = elements > 0 ? elements - 1 : 0;

  // Staple processing. RFC 6066 staples cover the leaf only; RFC 6961
  // multi-staples cover every chain position.
  std::vector<bool> satisfied_by_staple(elements, false);

  // Applies one staple covering chain position `pos`. Returns false when the
  // staple forces an immediate rejection.
  auto apply_staple = [&](BytesView staple_der, std::size_t pos) -> bool {
    auto staple = ocsp::ParseOcspResponse(staple_der);
    if (pos + 1 >= path.chain.size()) return true;
    const crypto::PublicKey& issuer_key = path.chain[pos + 1]->tbs.public_key;
    if (!staple || staple->status != ocsp::ResponseStatus::kSuccessful ||
        !ocsp::VerifyOcspSignature(*staple, issuer_key))
      return true;  // unusable staple: ignore
    outcome.used_staple = true;
    switch (staple->single.status) {
      case ocsp::CertStatus::kRevoked:
        if (policy_.respect_revoked_staple) {
          outcome.decision = VisitOutcome::Decision::kRejected;
          outcome.reject_reason = "stapled OCSP: revoked";
          return false;
        }
        // Browsers that don't respect revoked staples fall through to
        // contacting the responder directly (Chrome on OS X, §6.3).
        break;
      case ocsp::CertStatus::kGood:
        satisfied_by_staple[pos] = true;
        break;
      case ocsp::CertStatus::kUnknown:
        if (policy_.reject_unknown_ocsp) {
          outcome.decision = VisitOutcome::Decision::kRejected;
          outcome.reject_reason = "stapled OCSP: unknown";
          return false;
        }
        // Incorrectly treated as trusted.
        satisfied_by_staple[pos] = true;
        break;
    }
    return true;
  };

  if (policy_.use_staple_in_validation) {
    if (policy_.request_multi_staple &&
        !server_hello.stapled_ocsp_multi.empty()) {
      for (std::size_t pos = 0;
           pos < server_hello.stapled_ocsp_multi.size() && pos < elements;
           ++pos) {
        const Bytes& staple = server_hello.stapled_ocsp_multi[pos];
        if (!staple.empty() && !apply_staple(staple, pos)) return outcome;
      }
    } else if (policy_.request_staple && !server_hello.stapled_ocsp.empty()) {
      if (!apply_staple(server_hello.stapled_ocsp, 0)) return outcome;
    }
  }

  CheckContext ctx{net_, now, &outcome};
  bool warn = false;

  for (std::size_t i = 0; i < elements; ++i) {
    const x509::Certificate& cert = *path.chain[i];
    const x509::Certificate& issuer = *path.chain[i + 1];
    const crypto::PublicKey& issuer_key = issuer.tbs.public_key;

    Position position;
    if (i == 0) {
      position = Position::kLeaf;
    } else if (i == 1) {
      position = Position::kFirstIntermediate;
    } else {
      position = Position::kHigherIntermediate;
    }

    // Some browsers apply their strict "first element" unavailability rule
    // to the leaf when the chain has no intermediates (§6.3: Opera 31,
    // Safari, IE reject when "the first certificate in the chain" fails).
    const bool treat_as_first = position == Position::kLeaf &&
                                num_intermediates == 0 &&
                                policy_.first_position_rule_covers_bare_leaf;

    const PositionPolicy& ocsp_rule =
        treat_as_first ? policy_.ocsp.first_intermediate
                       : policy_.ocsp.For(position);
    const PositionPolicy& crl_rule = treat_as_first
                                         ? policy_.crl.first_intermediate
                                         : policy_.crl.For(position);

    const bool has_ocsp = !cert.tbs.ocsp_urls.empty();
    const bool has_crl = !cert.tbs.crl_urls.empty();

    if (satisfied_by_staple[i]) continue;

    FailureAction failure_action = FailureAction::kAccept;
    ElementStatus status = ElementStatus::kGood;
    bool checked = false;

    if (has_ocsp && Attempted(ocsp_rule.check, ev)) {
      checked = true;
      status = CheckViaOcsp(ctx, cert, issuer, issuer_key);
      failure_action = ocsp_rule.on_unavailable;
      if (status == ElementStatus::kUnavailable &&
          Attempted(policy_.try_crl_on_ocsp_failure, ev) && has_crl) {
        status = CheckViaCrl(ctx, cert, issuer_key);
        failure_action = crl_rule.on_unavailable;
      }
    } else if (has_crl && Attempted(crl_rule.check, ev) &&
               !(crl_rule.skip_crl_if_ocsp_listed && has_ocsp)) {
      checked = true;
      status = CheckViaCrl(ctx, cert, issuer_key);
      failure_action = crl_rule.on_unavailable;
    }

    if (!checked) continue;

    switch (status) {
      case ElementStatus::kGood:
        break;
      case ElementStatus::kRevoked:
        outcome.decision = VisitOutcome::Decision::kRejected;
        outcome.reject_reason = "revoked (position " + std::to_string(i) + ")";
        return outcome;
      case ElementStatus::kUnknown:
        if (policy_.reject_unknown_ocsp) {
          outcome.decision = VisitOutcome::Decision::kRejected;
          outcome.reject_reason = "OCSP status unknown";
          return outcome;
        }
        break;
      case ElementStatus::kUnavailable:
        switch (failure_action) {
          case FailureAction::kAccept:
            break;
          case FailureAction::kReject:
            outcome.decision = VisitOutcome::Decision::kRejected;
            outcome.reject_reason =
                "revocation info unavailable (position " + std::to_string(i) +
                ")";
            return outcome;
          case FailureAction::kWarn:
            warn = true;
            break;
        }
        break;
    }
  }

  outcome.decision = warn ? VisitOutcome::Decision::kWarned
                          : VisitOutcome::Decision::kAccepted;
  return outcome;
}

}  // namespace rev::browser
