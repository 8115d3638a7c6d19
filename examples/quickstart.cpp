// Quickstart: the library's basic objects end to end.
//
// Builds a tiny PKI with *real RSA* signatures — a root CA, an intermediate,
// and a site certificate — revokes the certificate, and checks its status
// through both dissemination protocols (CRL download and OCSP query) over
// the simulated network, exactly the way the measurement pipeline does.
//
//   $ ./quickstart
#include <cstdio>

#include "ca/ca.h"
#include "crl/crl.h"
#include "net/simnet.h"
#include "ocsp/ocsp.h"
#include "util/rng.h"
#include "util/stats.h"
#include "x509/verify.h"

using namespace rev;

int main() {
  util::Rng rng(2015);
  const util::Timestamp now = util::MakeDate(2015, 3, 31);

  // 1. A root CA and an intermediate, using real RSA-1024 keys.
  ca::CertificateAuthority::Options root_options;
  root_options.name = "Example Root";
  root_options.domain = "exampleroot.sim";
  root_options.key_type = crypto::KeyType::kRsaSha256;
  root_options.rsa_bits = 1024;
  auto root = ca::CertificateAuthority::CreateRoot(
      root_options, rng, util::MakeDate(2010, 1, 1));

  ca::CertificateAuthority::Options int_options;
  int_options.name = "Example CA";
  int_options.domain = "exampleca.sim";
  int_options.key_type = crypto::KeyType::kRsaSha256;
  int_options.rsa_bits = 1024;
  auto intermediate =
      root->CreateIntermediate(int_options, rng, util::MakeDate(2012, 1, 1));

  std::printf("root:         %s\n", root->cert()->tbs.subject.ToString().c_str());
  std::printf("intermediate: %s\n\n",
              intermediate->cert()->tbs.subject.ToString().c_str());

  // 2. Issue a site certificate.
  ca::CertificateAuthority::IssueOptions issue;
  issue.common_name = "www.example.sim";
  issue.not_before = util::MakeDate(2014, 6, 1);
  issue.lifetime_seconds = 365 * util::kSecondsPerDay;
  const x509::CertPtr leaf = intermediate->Issue(issue, rng);
  std::printf("issued %s\n  serial  %s\n  DER     %zu bytes\n  CRL     %s\n  OCSP    %s\n\n",
              leaf->tbs.subject.CommonName().c_str(),
              x509::SerialToString(leaf->tbs.serial).c_str(), leaf->der.size(),
              leaf->tbs.crl_urls[0].c_str(), leaf->tbs.ocsp_urls[0].c_str());

  // 3. Chain verification against the root store.
  x509::CertPool roots, intermediates;
  roots.Add(root->cert());
  intermediates.Add(intermediate->cert());
  x509::VerifyOptions verify_options;
  verify_options.at = now;
  const x509::VerifyResult path =
      x509::VerifyChain(leaf, intermediates, roots, verify_options);
  std::printf("chain verification: %s (length %zu)\n\n",
              x509::VerifyStatusName(path.status), path.chain.size());

  // 4. Publish revocation services on the simulated network and revoke.
  net::SimNet net;
  root->RegisterEndpoints(&net);
  intermediate->RegisterEndpoints(&net);
  intermediate->Revoke(leaf->tbs.serial, now - 10 * util::kSecondsPerDay,
                       x509::ReasonCode::kKeyCompromise);
  std::printf("revoked %s (keyCompromise)\n\n", issue.common_name.c_str());

  // 5a. Check via CRL: download, verify the CA's signature, look up.
  const net::FetchResult crl_fetch = net.Get(leaf->tbs.crl_urls[0], now);
  const auto crl = crl::ParseCrlView(crl_fetch.response.body);
  if (!crl) return 1;
  const bool crl_sig_ok =
      crl::VerifyCrlSignature(*crl, intermediate->key().Public());
  const auto entry = crl->Find(leaf->tbs.serial);
  std::printf("CRL check:  %s  (%zu entries, %s, signature %s, %.0f ms)\n",
              entry ? "REVOKED" : "good", crl->num_entries,
              util::HumanBytes(static_cast<double>(crl->der.size())).c_str(),
              crl_sig_ok ? "ok" : "BAD", crl_fetch.elapsed_seconds * 1000);
  if (entry)
    std::printf("            revoked %s, reason %s\n",
                util::FormatDate(entry->revocation_date).c_str(),
                x509::ReasonCodeName(entry->reason));

  // 5b. Check via OCSP: one small signed answer instead of the whole list.
  ocsp::OcspRequest request;
  request.cert_ids = {ocsp::MakeCertId(*intermediate->cert(), leaf->tbs.serial)};
  const net::FetchResult ocsp_fetch =
      net.Post(leaf->tbs.ocsp_urls[0], ocsp::EncodeOcspRequest(request), now);
  auto response = ocsp::ParseOcspResponse(ocsp_fetch.response.body);
  const bool ocsp_sig_ok =
      response && ocsp::VerifyOcspSignature(*response, intermediate->key().Public());
  std::printf("OCSP check: %s  (%zu-byte response, signature %s, %.0f ms)\n",
              ocsp::CertStatusName(response->single.status),
              ocsp_fetch.response.body.size(), ocsp_sig_ok ? "ok" : "BAD",
              ocsp_fetch.elapsed_seconds * 1000);

  std::printf("\nbandwidth: CRL cost %zu bytes vs OCSP cost %zu bytes\n",
              crl_fetch.response.body.size(), ocsp_fetch.response.body.size());
  return 0;
}
