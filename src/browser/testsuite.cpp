#include "browser/testsuite.h"

#include <cassert>

#include "util/rng.h"

namespace rev::browser {

const char* RevProtocolName(RevProtocol p) {
  switch (p) {
    case RevProtocol::kCrlOnly: return "crl";
    case RevProtocol::kOcspOnly: return "ocsp";
    case RevProtocol::kBoth: return "both";
  }
  return "?";
}

const char* FailureModeName(FailureMode m) {
  switch (m) {
    case FailureMode::kNone: return "none";
    case FailureMode::kNxdomain: return "nxdomain";
    case FailureMode::kHttp404: return "http-404";
    case FailureMode::kTimeout: return "timeout";
    case FailureMode::kOcspUnknown: return "ocsp-unknown";
    case FailureMode::kOcspTimeout: return "ocsp-timeout";
  }
  return "?";
}

std::string TestCase::Description() const {
  std::string d = "case#" + std::to_string(id) + " ints=" +
                  std::to_string(num_intermediates) + " proto=" +
                  RevProtocolName(protocol);
  if (ev) d += " ev";
  if (revoked_element >= 0)
    d += " revoked=" + std::to_string(revoked_element);
  if (failure != FailureMode::kNone)
    d += std::string(" fail=") + FailureModeName(failure) + "@" +
         std::to_string(failure_element);
  if (stapling) {
    d += std::string(" staple=") + ocsp::CertStatusName(staple_status);
    if (multi_staple) d += " multi";
    if (server_refuses_bad_staple) d += " nginx-default";
  }
  return d;
}

std::vector<TestCase> GenerateTestSuite() {
  std::vector<TestCase> suite;
  int next_id = 0;

  // A. Revocation-status cases: 84.
  for (int k = 0; k <= 3; ++k) {
    for (int revoked = -1; revoked <= k; ++revoked) {
      for (RevProtocol protocol :
           {RevProtocol::kCrlOnly, RevProtocol::kOcspOnly, RevProtocol::kBoth}) {
        for (bool ev : {false, true}) {
          TestCase test;
          test.id = next_id++;
          test.num_intermediates = k;
          test.revoked_element = revoked;
          test.protocol = protocol;
          test.ev = ev;
          suite.push_back(test);
        }
      }
    }
  }

  // B. Unavailable-revocation-information cases: 140.
  struct FailureConfig {
    RevProtocol protocol;
    FailureMode mode;
  };
  const FailureConfig kFailures[] = {
      {RevProtocol::kCrlOnly, FailureMode::kNxdomain},
      {RevProtocol::kCrlOnly, FailureMode::kHttp404},
      {RevProtocol::kCrlOnly, FailureMode::kTimeout},
      {RevProtocol::kOcspOnly, FailureMode::kNxdomain},
      {RevProtocol::kOcspOnly, FailureMode::kHttp404},
      {RevProtocol::kOcspOnly, FailureMode::kTimeout},
      {RevProtocol::kOcspOnly, FailureMode::kOcspUnknown},
  };
  for (int k = 0; k <= 3; ++k) {
    for (int element = 0; element <= k; ++element) {
      for (const FailureConfig& failure : kFailures) {
        for (bool ev : {false, true}) {
          TestCase test;
          test.id = next_id++;
          test.num_intermediates = k;
          test.protocol = failure.protocol;
          test.ev = ev;
          test.failure = failure.mode;
          test.failure_element = element;
          suite.push_back(test);
        }
      }
    }
  }

  // C. OCSP Stapling cases: 20. The responder is firewalled from the client
  // in all of them, so the staple is the only channel.
  for (int k = 0; k <= 1; ++k) {
    for (bool ev : {false, true}) {
      for (ocsp::CertStatus status :
           {ocsp::CertStatus::kGood, ocsp::CertStatus::kRevoked,
            ocsp::CertStatus::kUnknown}) {
        TestCase test;
        test.id = next_id++;
        test.num_intermediates = k;
        test.protocol = RevProtocol::kOcspOnly;
        test.ev = ev;
        test.stapling = true;
        test.staple_status = status;
        suite.push_back(test);
      }
    }
  }
  for (int k = 1; k <= 3; ++k) {
    for (ocsp::CertStatus status :
         {ocsp::CertStatus::kGood, ocsp::CertStatus::kRevoked}) {
      TestCase test;
      test.id = next_id++;
      test.num_intermediates = k;
      test.protocol = RevProtocol::kOcspOnly;
      test.stapling = true;
      test.multi_staple = true;
      test.staple_status = status;
      suite.push_back(test);
    }
  }
  for (ocsp::CertStatus status :
       {ocsp::CertStatus::kRevoked, ocsp::CertStatus::kUnknown}) {
    TestCase test;
    test.id = next_id++;
    test.num_intermediates = 1;
    test.protocol = RevProtocol::kOcspOnly;
    test.stapling = true;
    test.staple_status = status;
    test.server_refuses_bad_staple = true;
    suite.push_back(test);
  }

  assert(suite.size() == 244);
  return suite;
}

TestEnvironment::TestEnvironment(const TestCase& test, std::uint64_t seed,
                                 util::Timestamp now)
    : test_(test), now_(now) {
  util::Rng rng(seed ^ (static_cast<std::uint64_t>(test.id) * 0x9E3779B97F4A7C15ull));
  // Appended, not `"t" + ...`: GCC 12 at -O3 reports a false -Wrestrict on
  // that operator+.
  std::string prefix(1, 't');
  prefix += std::to_string(test.id);
  const bool with_crl = test.protocol != RevProtocol::kOcspOnly;
  const bool with_ocsp = test.protocol != RevProtocol::kCrlOnly;

  // Root.
  ca::CertificateAuthority::Options root_options;
  root_options.name = prefix + " Root";
  root_options.domain = prefix + "-root.sim";
  cas_.push_back(ca::CertificateAuthority::CreateRoot(
      root_options, rng, now - 365 * util::kSecondsPerDay));

  // Intermediates, outermost (signed by root) first. cas_[i] issued
  // cas_[i+1]'s certificate; cas_.back() issues the leaf.
  for (int i = 0; i < test.num_intermediates; ++i) {
    ca::CertificateAuthority::Options options;
    options.name = prefix + " Int" + std::to_string(test.num_intermediates - i);
    options.domain = prefix + "-int" + std::to_string(test.num_intermediates - i) + ".sim";
    cas_.push_back(cas_.back()->CreateIntermediate(
        options, rng, now - 180 * util::kSecondsPerDay,
        4 * 365 * util::kSecondsPerDay, with_crl, with_ocsp));
  }

  // Leaf.
  ca::CertificateAuthority::IssueOptions issue;
  issue.common_name = prefix + ".example.sim";
  issue.ev = test.ev;
  issue.include_crl_url = with_crl;
  issue.include_ocsp_url = with_ocsp;
  issue.not_before = now - 30 * util::kSecondsPerDay;
  issue.lifetime_seconds = 365 * util::kSecondsPerDay;
  leaf_ = cas_.back()->Issue(issue, rng);

  // Wire every CA's CRL/OCSP endpoints into this test's private network.
  for (auto& ca : cas_) ca->RegisterEndpoints(&net_);

  roots_.Add(cas_.front()->cert());

  // Chain element e (0 = leaf, e >= 1 = intermediate) maps to:
  //   certificate: e == 0 ? leaf : cas_[cas_.size() - e]->cert()
  //   issuing CA:  cas_[cas_.size() - 1 - e]
  auto element_serial = [&](int e) -> const x509::Serial& {
    return e == 0 ? leaf_->tbs.serial
                  : cas_[cas_.size() - static_cast<std::size_t>(e)]->cert()->tbs.serial;
  };
  auto issuer_ca = [&](int e) -> ca::CertificateAuthority& {
    return *cas_[cas_.size() - 1 - static_cast<std::size_t>(e)];
  };

  // Revocation.
  if (test.revoked_element >= 0) {
    issuer_ca(test.revoked_element)
        .Revoke(element_serial(test.revoked_element),
                now - 10 * util::kSecondsPerDay,
                x509::ReasonCode::kKeyCompromise);
  }

  // Failure injection on the failing element's revocation endpoints.
  if (test.failure != FailureMode::kNone) {
    ca::CertificateAuthority& ca = issuer_ca(test.failure_element);
    switch (test.failure) {
      case FailureMode::kNxdomain:
        net_.SetDnsFailure(ca.CrlHost(), true);
        net_.SetDnsFailure(ca.OcspHost(), true);
        break;
      case FailureMode::kTimeout:
        net_.SetUnresponsive(ca.CrlHost(), true);
        net_.SetUnresponsive(ca.OcspHost(), true);
        break;
      case FailureMode::kHttp404: {
        auto handler404 = [](const net::HttpRequest&, util::Timestamp) {
          return net::HttpResponse{
              .status = 404, .body = {}, .max_age = 0, .headers = {}};
        };
        net_.AddHost(ca.CrlHost(), handler404);
        net_.AddHost(ca.OcspHost(), handler404);
        break;
      }
      case FailureMode::kOcspUnknown:
        ca.responder().Remove(element_serial(test.failure_element));
        break;
      case FailureMode::kOcspTimeout:
        net_.SetUnresponsive(ca.OcspHost(), true);
        break;
      case FailureMode::kNone:
        break;
    }
  }

  // Stapling setup.
  if (test.stapling) {
    switch (test.staple_status) {
      case ocsp::CertStatus::kGood:
        break;
      case ocsp::CertStatus::kRevoked:
        issuer_ca(0).Revoke(leaf_->tbs.serial, now - 10 * util::kSecondsPerDay,
                            x509::ReasonCode::kKeyCompromise);
        break;
      case ocsp::CertStatus::kUnknown:
        issuer_ca(0).responder().Remove(leaf_->tbs.serial);
        break;
    }
    // Firewall the responder: the staple is the only channel (§6.1).
    if (!test.staple_responder_reachable)
      net_.SetUnresponsive(issuer_ca(0).OcspHost(), true);
  }

  // TLS server configuration.
  server_config_.chain_der.push_back(leaf_->der);
  for (int e = 1; e <= test.num_intermediates; ++e) {
    server_config_.chain_der.push_back(
        Bytes(cas_[cas_.size() - static_cast<std::size_t>(e)]->cert()->der));
  }
  server_config_.stapling_enabled = test.stapling;
  server_config_.multi_staple_enabled = test.multi_staple;
  server_config_.staple_requires_cache = false;
  server_config_.staple_any_status = !test.server_refuses_bad_staple;
  if (test.stapling) {
    ca::CertificateAuthority* leaf_issuer = &issuer_ca(0);
    const x509::Serial leaf_serial = leaf_->tbs.serial;
    server_config_.fetch_leaf_staple = [leaf_issuer,
                                        leaf_serial](util::Timestamp t) {
      return leaf_issuer->responder().StatusFor(leaf_serial, t).der;
    };
    if (test.multi_staple) {
      for (int e = 0; e <= test.num_intermediates; ++e) {
        ca::CertificateAuthority* issuer = &issuer_ca(e);
        const x509::Serial serial = element_serial(e);
        server_config_.fetch_chain_staples.push_back(
            [issuer, serial](util::Timestamp t) {
              return issuer->responder().StatusFor(serial, t).der;
            });
      }
    }
  }
}

VisitOutcome TestEnvironment::Run(const Policy& policy) {
  tls::TlsServer server(server_config_);  // fresh staple cache per visit
  Client client(policy, &net_, roots_);
  return client.Visit(server, now_);
}

VisitOutcome RunCase(const TestCase& test, const Policy& policy,
                     std::uint64_t seed, util::Timestamp now) {
  TestEnvironment env(test, seed, now);
  return env.Run(policy);
}

}  // namespace rev::browser
