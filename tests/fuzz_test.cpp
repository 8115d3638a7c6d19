// Mutation-fuzz tests: random byte-level corruption of valid DER artifacts
// must never crash, hang, or over-read — parsers either reject the input or
// produce a structurally valid object whose signature check then fails.
// (The paper's pipeline parses millions of certificates harvested from the
// open internet; parser robustness is a correctness requirement, not a
// nicety.)
#include <gtest/gtest.h>

#include <algorithm>

#include "cascade/cascade.h"
#include "cascade/delta.h"
#include "core/pipeline.h"
#include "crl/crl.h"
#include "crlset/crlset.h"
#include "crypto/sha256.h"
#include "ocsp/ocsp.h"
#include "ocsp/responder.h"
#include "serve/frontend.h"
#include "util/hex.h"
#include "util/rng.h"
#include "x509/certificate.h"
#include "x509/view.h"

namespace rev {
namespace {

constexpr util::Timestamp kNow = 1'420'000'000;

Bytes ValidCertDer() {
  x509::TbsCertificate tbs;
  tbs.serial = x509::Serial{0x01, 0x02, 0x03};
  tbs.issuer = x509::Name::Make("Fuzz CA", "Fuzz");
  tbs.subject = x509::Name::FromCommonName("www.fuzz.sim");
  tbs.not_before = kNow - 1000;
  tbs.not_after = kNow + 1000;
  tbs.public_key = crypto::SimKeyFromLabel("fuzz-leaf").Public();
  tbs.crl_urls = {"http://crl.fuzz.sim/a.crl"};
  tbs.ocsp_urls = {"http://ocsp.fuzz.sim/"};
  tbs.dns_names = {"www.fuzz.sim"};
  tbs.key_usage = x509::kKeyUsageDigitalSignature;
  tbs.policies = {asn1::oids::VerisignEvPolicy()};
  return x509::SignCertificate(tbs, crypto::SimKeyFromLabel("fuzz-ca")).der;
}

Bytes ValidCrlDer() {
  util::Rng rng(4242);
  crl::TbsCrl tbs;
  tbs.issuer = x509::Name::Make("Fuzz CA", "Fuzz");
  tbs.this_update = kNow;
  tbs.next_update = kNow + util::kSecondsPerDay;
  tbs.crl_number = 3;
  for (int i = 0; i < 30; ++i) {
    x509::Serial serial(16);
    rng.Fill(serial.data(), serial.size());
    tbs.entries.push_back(crl::CrlEntry{std::move(serial), kNow - 100,
                                        i % 2 ? x509::ReasonCode::kKeyCompromise
                                              : x509::ReasonCode::kNoReasonCode});
  }
  return crl::SignCrl(tbs, crypto::SimKeyFromLabel("fuzz-ca")).der;
}

Bytes ValidOcspDer() {
  ocsp::SingleResponse single;
  single.cert_id.issuer_name_hash = Bytes(32, 0x11);
  single.cert_id.issuer_key_hash = Bytes(32, 0x22);
  single.cert_id.serial = x509::Serial{0x09};
  single.status = ocsp::CertStatus::kRevoked;
  single.revocation_time = kNow - 100;
  single.reason = x509::ReasonCode::kKeyCompromise;
  single.this_update = kNow;
  single.next_update = kNow + util::kSecondsPerDay;
  return ocsp::SignOcspResponse(single, kNow, crypto::SimKeyFromLabel("fuzz-ca"))
      .der;
}

enum class Mutation { kFlipBit, kSetByte, kTruncate, kExtend, kSwapRange };

Bytes Mutate(const Bytes& input, util::Rng& rng) {
  Bytes out = input;
  const int num_mutations = 1 + static_cast<int>(rng.NextBelow(4));
  for (int m = 0; m < num_mutations && !out.empty(); ++m) {
    switch (static_cast<Mutation>(rng.NextBelow(5))) {
      case Mutation::kFlipBit: {
        const std::size_t pos = rng.NextBelow(out.size());
        out[pos] ^= static_cast<std::uint8_t>(1u << rng.NextBelow(8));
        break;
      }
      case Mutation::kSetByte: {
        const std::size_t pos = rng.NextBelow(out.size());
        out[pos] = static_cast<std::uint8_t>(rng.Next());
        break;
      }
      case Mutation::kTruncate:
        out.resize(rng.NextBelow(out.size()) + 1);
        break;
      case Mutation::kExtend: {
        Bytes extra(1 + rng.NextBelow(16));
        rng.Fill(extra.data(), extra.size());
        Append(out, extra);
        break;
      }
      case Mutation::kSwapRange: {
        const std::size_t a = rng.NextBelow(out.size());
        const std::size_t b = rng.NextBelow(out.size());
        std::swap(out[a], out[b]);
        break;
      }
    }
  }
  return out;
}

class FuzzSeeds : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSeeds, CertificateParserNeverCrashes) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  const Bytes valid = ValidCertDer();
  const crypto::PublicKey ca_key = crypto::SimKeyFromLabel("fuzz-ca").Public();
  int parsed_ok = 0;
  for (int i = 0; i < 400; ++i) {
    const Bytes mutated = Mutate(valid, rng);
    auto cert = x509::ParseCertificate(mutated);
    if (!cert) continue;
    ++parsed_ok;
    // Anything that still parses must carry the original signed bytes to
    // verify — i.e. the mutation missed the TBS or the signature, not both.
    if (x509::VerifyCertificateSignature(*cert, ca_key)) {
      EXPECT_EQ(cert->tbs_der,
                x509::EncodeTbs(cert->tbs, cert->sig_type));
    }
    // Accessors never crash on parsed-but-mutated objects.
    (void)cert->IsEv();
    (void)cert->IsCa();
    (void)cert->Fingerprint();
    (void)cert->Unrevocable();
  }
  // Some mutations (e.g. in the signature bits) must still parse.
  EXPECT_GT(parsed_ok, 0);
}

TEST_P(FuzzSeeds, CrlParserNeverCrashes) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 2);
  const Bytes valid = ValidCrlDer();
  for (int i = 0; i < 400; ++i) {
    const Bytes mutated = Mutate(valid, rng);
    const auto crl = crl::ParseCrlView(mutated);
    if (!crl) continue;
    // The parse validated the list: the walk sees exactly size() entries.
    std::size_t walked = 0;
    for (const crl::CrlEntryView& entry : crl->entries) {
      EXPECT_FALSE(entry.serial.empty());
      ++walked;
    }
    EXPECT_EQ(walked, crl->num_entries);
    (void)crl->Find(x509::Serial{1, 2, 3});
    (void)crl::DescribeCrl(*crl);
  }
}

TEST_P(FuzzSeeds, OcspParserNeverCrashes) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 1299709 + 3);
  const Bytes valid = ValidOcspDer();
  for (int i = 0; i < 400; ++i) {
    const Bytes mutated = Mutate(valid, rng);
    auto response = ocsp::ParseOcspResponse(mutated);
    if (response && response->status == ocsp::ResponseStatus::kSuccessful) {
      (void)ocsp::CertStatusName(response->single.status);
    }
  }
}

TEST_P(FuzzSeeds, CrlSetDeserializeNeverCrashes) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 15485863 + 4);
  crlset::CrlSet set;
  set.sequence = 1;
  for (int i = 0; i < 10; ++i) {
    Bytes parent(32);
    rng.Fill(parent.data(), parent.size());
    x509::Serial serial(16);
    rng.Fill(serial.data(), serial.size());
    set.AddEntry(parent, serial);
  }
  const Bytes valid = set.Serialize();
  for (int i = 0; i < 400; ++i) {
    const Bytes mutated = Mutate(valid, rng);
    auto decoded = crlset::CrlSet::Deserialize(mutated);
    if (decoded) (void)decoded->NumEntries();
  }
}

TEST_P(FuzzSeeds, CascadeDeserializeNeverCrashesOrMisAnswers) {
  // The cascade blob is checksum-sealed: a mutated blob either fails
  // Deserialize or (mutation landed outside the sealed region — impossible
  // here, the whole blob is sealed) decodes to the identical cascade. Either
  // way a client can never be handed a filter that answers "revoked"
  // wrongly because of wire damage.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 49979687 + 6);
  std::vector<Bytes> revoked, not_revoked;
  for (int i = 0; i < 1'000; ++i) {
    Bytes issuer(16), serial(12);
    rng.Fill(issuer.data(), issuer.size());
    rng.Fill(serial.data(), serial.size());
    (i < 40 ? revoked : not_revoked)
        .push_back(cascade::CertKey(issuer, serial));
  }
  cascade::FilterCascade original =
      cascade::FilterCascade::Build(revoked, not_revoked);
  original.sequence = 9;
  const Bytes valid = original.Serialize();
  int accepted = 0;
  for (int i = 0; i < 400; ++i) {
    const Bytes mutated = Mutate(valid, rng);
    auto decoded = cascade::FilterCascade::Deserialize(mutated);
    if (!decoded) continue;
    ++accepted;
    // Accepted implies byte-identical content (the checksum pins it), so
    // every query answer matches the original.
    ASSERT_TRUE(*decoded == original);
    for (const Bytes& key : revoked) ASSERT_TRUE(decoded->IsRevoked(key));
  }
  // Mutations essentially never preserve the checksum; the only accepted
  // blobs are byte-identical ones (Mutate does compose into a no-op now
  // and then — same-position swaps, double bit flips).
  EXPECT_LT(accepted, 40);
}

TEST_P(FuzzSeeds, DeltaDeserializeNeverCrashesOrMisAnswers) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 86028121 + 7);
  cascade::CascadeDelta delta;
  delta.from_sequence = 4;
  delta.to_sequence = 5;
  for (int i = 0; i < 30; ++i) {
    Bytes key(32);
    rng.Fill(key.data(), key.size());
    (i % 3 ? delta.added : delta.removed).push_back(std::move(key));
  }
  const Bytes valid_delta = delta.Serialize();

  cascade::UpdateResponse response;
  response.kind = cascade::UpdateResponse::Kind::kDeltas;
  response.deltas = {delta};
  const Bytes valid_response = response.Serialize();

  for (int i = 0; i < 400; ++i) {
    auto mutated_delta = cascade::CascadeDelta::Deserialize(Mutate(valid_delta, rng));
    if (mutated_delta) {
      ASSERT_EQ(*mutated_delta, delta);
    }

    auto mutated_response =
        cascade::UpdateResponse::Deserialize(Mutate(valid_response, rng));
    if (mutated_response) {
      ASSERT_EQ(mutated_response->kind, cascade::UpdateResponse::Kind::kDeltas);
      ASSERT_EQ(mutated_response->deltas.size(), 1u);
      ASSERT_EQ(mutated_response->deltas[0], delta);
    }
  }
}

TEST_P(FuzzSeeds, PureGarbageRejected) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 32452843 + 5);
  for (int i = 0; i < 200; ++i) {
    Bytes garbage(rng.NextBelow(600));
    rng.Fill(garbage.data(), garbage.size());
    // Random bytes essentially never form a valid signed object.
    auto cert = x509::ParseCertificate(garbage);
    if (cert) {
      EXPECT_FALSE(x509::VerifyCertificateSignature(
          *cert, crypto::SimKeyFromLabel("fuzz-ca").Public()));
    }
    (void)crl::ParseCrlView(garbage);
    (void)ocsp::ParseOcspResponse(garbage);
    (void)ocsp::ParseOcspRequestView(garbage);
    (void)crlset::CrlSet::Deserialize(garbage);
    EXPECT_FALSE(cascade::FilterCascade::Deserialize(garbage));
    EXPECT_FALSE(cascade::CascadeDelta::Deserialize(garbage));
    EXPECT_FALSE(cascade::UpdateResponse::Deserialize(garbage));
  }
}

// Mutated/truncated DER through the streaming corpus ingest: a rejected
// observation must leave the columnar store bit-identical — no partial
// interning, no arena corruption. CheckInvariants() re-derives every
// fingerprint from the arena and re-probes the index, so it would catch a
// torn row immediately.
TEST_P(FuzzSeeds, StreamingIngestRejectsWithoutCorpusCorruption) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 48611 + 3);
  const Bytes valid = ValidCertDer();

  core::Pipeline pipeline{x509::CertPool{}};
  pipeline.BeginScan(kNow);
  // Seed with one good row so rejection has a store to corrupt.
  const BytesView valid_view(valid);
  ASSERT_TRUE(pipeline.ObserveDer({&valid_view, 1}).has_value());

  const core::CertCorpus& corpus = pipeline.corpus();
  std::size_t accepted = 1;
  for (int i = 0; i < 300; ++i) {
    Bytes mutated = Mutate(valid, rng);
    if (rng.NextBelow(4) == 0)  // also exercise hard truncation
      mutated.resize(rng.NextBelow(mutated.size() + 1));
    const std::size_t size_before = corpus.size();
    const BytesView view(mutated);
    const auto row = pipeline.ObserveDer({&view, 1});
    if (row.has_value()) {
      ++accepted;  // structurally valid mutant (e.g. unsigned-field tweak)
    } else {
      ASSERT_EQ(corpus.size(), size_before);
    }
    ASSERT_TRUE(corpus.CheckInvariants()) << "after mutant " << i;
  }
  EXPECT_GE(corpus.size(), 1u);
  EXPECT_LE(corpus.size(), accepted);

  // Multi-element chains are all-or-nothing: one bad element rejects the
  // whole observation even when the others are pristine, and a never-seen
  // valid leaf ahead of it is not interned.
  x509::TbsCertificate tbs = x509::ParseCertificate(valid)->tbs;
  tbs.serial = x509::Serial{0x7E, 0x57};
  const Bytes fresh =
      x509::SignCertificate(tbs, crypto::SimKeyFromLabel("fuzz-ca")).der;
  ASSERT_EQ(corpus.FindDer(fresh), core::CertCorpus::kNoRow);
  Bytes truncated(valid.begin(), valid.begin() + valid.size() / 2);
  const std::size_t size_before = corpus.size();
  for (const Bytes* leaf : {&valid, &fresh}) {
    const BytesView chain[2] = {BytesView(*leaf), BytesView(truncated)};
    EXPECT_FALSE(pipeline.ObserveDer(chain).has_value());
    EXPECT_EQ(corpus.size(), size_before);
  }
  EXPECT_EQ(corpus.FindDer(fresh), core::CertCorpus::kNoRow);
  EXPECT_TRUE(corpus.CheckInvariants());
  pipeline.EndScan();
}

// One-byte mutations of DER the corpus already holds: ObserveDer's byte
// dedup misses on every mutant, so each takes the parse path — accepted
// exactly when ParseCertView accepts it, as a new row fingerprinted by its
// own SHA-256 whose full parse (cert()) exists and matches its CA, EV and
// URL columns, and rejected without touching the corpus otherwise.
TEST_P(FuzzSeeds, OneByteMutationsOfInternedDerTakeTheParsePath) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 11);
  const Bytes valid = ValidCertDer();

  core::Pipeline pipeline{x509::CertPool{}};
  pipeline.BeginScan(kNow);
  const BytesView valid_view(valid);
  const auto original = pipeline.ObserveDer({&valid_view, 1});
  ASSERT_TRUE(original.has_value());

  const core::CertCorpus& corpus = pipeline.corpus();
  std::size_t accepted = 0;
  for (int i = 0; i < 300; ++i) {
    Bytes mutated = valid;
    mutated[rng.NextBelow(mutated.size())] ^=
        static_cast<std::uint8_t>(1 + rng.NextBelow(255));
    const bool parses = x509::ParseCertView(mutated).has_value();
    const core::CertCorpus::Row known = corpus.FindDer(mutated);
    const std::size_t size_before = corpus.size();
    const BytesView view(mutated);
    const auto row = pipeline.ObserveDer({&view, 1});
    ASSERT_EQ(row.has_value(), parses) << "mutant " << i;
    if (row.has_value()) {
      ++accepted;
      EXPECT_NE(*row, *original);
      if (known == core::CertCorpus::kNoRow) {
        EXPECT_EQ(*row, size_before);
        EXPECT_EQ(corpus.size(), size_before + 1);
      } else {
        EXPECT_EQ(*row, known);  // a repeat of an earlier accepted mutant
        EXPECT_EQ(corpus.size(), size_before);
      }
      const BytesView fp = corpus.fingerprint(*row);
      EXPECT_EQ(Bytes(fp.begin(), fp.end()), crypto::Sha256Bytes(mutated));
      // The full parse accepts every stored row and agrees with its columns.
      const x509::CertPtr cert = corpus.cert(*row);
      ASSERT_NE(cert, nullptr) << "mutant " << i;
      EXPECT_EQ(cert->IsCa(), corpus.is_ca(*row));
      EXPECT_EQ(cert->IsEv(), corpus.is_ev(*row));
      EXPECT_EQ(cert->tbs.crl_urls.size(), corpus.crl_url_ids(*row).size());
      EXPECT_EQ(cert->tbs.ocsp_urls.size(), corpus.ocsp_url_ids(*row).size());
    } else {
      EXPECT_EQ(corpus.size(), size_before);
    }
    ASSERT_TRUE(corpus.CheckInvariants()) << "after mutant " << i;
  }
  // Signature and string-content bytes are not structural: some mutants
  // must parse, or the accept branch above went unexercised.
  EXPECT_GT(accepted, 0u);
  pipeline.EndScan();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Range(0, 8));

// Every one-byte mutation (each position set to each other value) of a
// single-cert, a 3-CertID and a nonced request, POSTed to Frontend::Serve
// and sent as the GET form: each answer is malformedRequest, unauthorized,
// or a successful response that parses, verifies under the responder's key,
// answers every CertID and echoes the nonce. POST and GET answer alike.
TEST(FrontendFuzz, OneByteMutationsOfRequestsAnswerSafely) {
  x509::TbsCertificate tbs;
  tbs.serial = x509::Serial{0x31};
  tbs.issuer = tbs.subject = x509::Name::Make("Fuzz OCSP CA", "Fuzz");
  tbs.not_before = 0;
  tbs.not_after = kNow + 100'000'000;
  tbs.public_key = crypto::SimKeyFromLabel("fuzz-ocsp").Public();
  tbs.basic_constraints = {true, -1};
  const x509::Certificate issuer =
      x509::SignCertificate(tbs, crypto::SimKeyFromLabel("fuzz-ocsp"));
  ocsp::Responder responder(issuer, crypto::SimKeyFromLabel("fuzz-ocsp"));
  for (std::uint8_t s = 1; s <= 4; ++s) responder.AddCertificate({s});
  responder.Revoke({0x02}, kNow - 50, x509::ReasonCode::kKeyCompromise);
  serve::Frontend frontend;
  frontend.AttachResponder(&responder);

  const auto request = [&](std::vector<std::uint8_t> serials, Bytes nonce) {
    ocsp::OcspRequest out;
    for (const std::uint8_t s : serials)
      out.cert_ids.push_back(ocsp::MakeCertId(issuer, {s}));
    out.nonce = std::move(nonce);
    return ocsp::EncodeOcspRequest(out);
  };
  const std::vector<Bytes> seeds = {
      request({0x01}, {}), request({0x01, 0x02, 0x03}, {}),
      request({0x04}, Bytes{0x5A, 0xA5, 0x01, 0x02})};

  std::size_t answered = 0;
  std::size_t refused = 0;
  const auto check = [&](const Bytes& der,
                         const serve::Frontend::ServeResult& result) {
    ASSERT_EQ(result.http_status, 200);
    ASSERT_TRUE(result.body);
    const auto parsed = ocsp::ParseOcspResponse(*result.body);
    ASSERT_TRUE(parsed);
    if (parsed->status == ocsp::ResponseStatus::kMalformedRequest ||
        parsed->status == ocsp::ResponseStatus::kUnauthorized) {
      ++refused;
      return;
    }
    ASSERT_EQ(parsed->status, ocsp::ResponseStatus::kSuccessful);
    ASSERT_TRUE(ocsp::VerifyOcspSignature(
        *parsed, crypto::SimKeyFromLabel("fuzz-ocsp").Public()));
    const auto sent = ocsp::ParseOcspRequestView(der);
    ASSERT_TRUE(sent);
    ASSERT_EQ(1 + parsed->more_singles.size(), sent->size());
    ASSERT_TRUE(std::ranges::equal(parsed->nonce, sent->nonce()));
    ++answered;
  };
  for (const Bytes& seed : seeds) {
    for (std::size_t pos = 0; pos < seed.size(); ++pos) {
      Bytes mutated = seed;
      for (int delta = 1; delta < 256; ++delta) {
        mutated[pos] = static_cast<std::uint8_t>(seed[pos] + delta);
        const auto post = frontend.Serve(mutated, kNow);
        std::string path(1, '/');
        path += util::Base64Encode(mutated);
        const auto get = frontend.ServeGetPath(path, kNow);
        SCOPED_TRACE(::testing::Message()
                     << "position " << pos << " delta " << delta);
        check(mutated, post);
        check(mutated, get);
        ASSERT_TRUE(post.body && get.body);
        ASSERT_EQ(*post.body, *get.body);
        if (HasFatalFailure()) return;
      }
    }
  }
  // Hash and serial bytes are not structural: some mutants must be
  // answered, and most structural ones refused.
  EXPECT_GT(answered, 0u);
  EXPECT_GT(refused, 0u);
  EXPECT_EQ(frontend.counters().requests, answered + refused);
}

}  // namespace
}  // namespace rev
