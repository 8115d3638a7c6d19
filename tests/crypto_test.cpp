// Tests for the crypto substrate: SHA-256 against FIPS vectors, HMAC against
// RFC 4231 vectors, bignum algebraic properties, RSA sign/verify, and the
// Signer abstraction.
#include <gtest/gtest.h>

#include "crypto/bigint.h"
#include "crypto/hmac.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"
#include "util/hex.h"
#include "util/rng.h"

namespace rev::crypto {
namespace {

using util::HexDecode;
using util::HexEncode;

std::string HashHex(std::string_view message) {
  return HexEncode(Sha256Bytes(ToBytes(message)));
}

// -------------------------------------------------------------- sha256 ----

TEST(Sha256, FipsVectors) {
  EXPECT_EQ(HashHex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(HashHex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(HashHex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.Update(chunk);
  const Sha256Digest digest = ctx.Finish();
  EXPECT_EQ(HexEncode(Bytes(digest.begin(), digest.end())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  util::Rng rng(1);
  for (std::size_t total : {1u, 55u, 56u, 63u, 64u, 65u, 127u, 128u, 1000u}) {
    Bytes data(total);
    rng.Fill(data.data(), data.size());
    const Sha256Digest oneshot = Sha256::Hash(data);
    // Feed in irregular chunks.
    Sha256 ctx;
    std::size_t pos = 0;
    std::size_t step = 1;
    while (pos < total) {
      const std::size_t n = std::min(step, total - pos);
      ctx.Update(BytesView(data.data() + pos, n));
      pos += n;
      step = step * 2 + 1;
    }
    EXPECT_EQ(ctx.Finish(), oneshot) << "length " << total;
  }
}

TEST(Sha256, PaddingBoundaries) {
  // Lengths straddling the 55/56-byte padding boundary all hash distinctly.
  std::set<std::string> digests;
  for (std::size_t n = 50; n <= 70; ++n) {
    digests.insert(HexEncode(Sha256Bytes(Bytes(n, 0x5A))));
  }
  EXPECT_EQ(digests.size(), 21u);
}

// ---------------------------------------------------------------- hmac ----

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Sha256Digest mac = HmacSha256(key, ToBytes("Hi There"));
  EXPECT_EQ(HexEncode(Bytes(mac.begin(), mac.end())),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const Sha256Digest mac = HmacSha256(
      ToBytes("Jefe"), ToBytes("what do ya want for nothing?"));
  EXPECT_EQ(HexEncode(Bytes(mac.begin(), mac.end())),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231LongKey) {
  const Bytes key(131, 0xaa);
  const Sha256Digest mac = HmacSha256(
      key, ToBytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(HexEncode(Bytes(mac.begin(), mac.end())),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, KeySensitivity) {
  const Bytes key1(16, 0x01), key2(16, 0x02);
  EXPECT_NE(HmacSha256(key1, ToBytes("msg")), HmacSha256(key2, ToBytes("msg")));
}

TEST(DeriveKey, LengthAndDeterminism) {
  const Bytes key(16, 0x42);
  const Bytes a = DeriveKey(key, "label", 100);
  const Bytes b = DeriveKey(key, "label", 100);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_EQ(a, b);
  EXPECT_NE(DeriveKey(key, "other", 100), a);
  // Prefix property.
  const Bytes shorter = DeriveKey(key, "label", 32);
  EXPECT_TRUE(std::equal(shorter.begin(), shorter.end(), a.begin()));
}

// -------------------------------------------------------------- bigint ----

TEST(BigInt, DecimalRoundTrip) {
  for (const char* s :
       {"0", "1", "42", "4294967295", "4294967296",
        "340282366920938463463374607431768211456",
        "123456789012345678901234567890123456789012345678"}) {
    EXPECT_EQ(BigInt::FromDecimal(s).ToDecimal(), s);
  }
}

TEST(BigInt, BytesRoundTrip) {
  util::Rng rng(2);
  for (int len : {0, 1, 2, 7, 8, 20, 49, 128}) {
    Bytes data(static_cast<std::size_t>(len));
    rng.Fill(data.data(), data.size());
    if (!data.empty() && data[0] == 0) data[0] = 1;
    const BigInt v = BigInt::FromBytes(data);
    EXPECT_EQ(v.ToBytes(), data);
  }
}

TEST(BigInt, LeadingZerosStripped) {
  const Bytes with_zeros = {0x00, 0x00, 0x12, 0x34};
  const BigInt v = BigInt::FromBytes(with_zeros);
  EXPECT_EQ(v.ToBytes(), (Bytes{0x12, 0x34}));
  EXPECT_EQ(v.Low64(), 0x1234u);
}

TEST(BigInt, Comparisons) {
  const BigInt a(100), b(200);
  EXPECT_LT(a, b);
  EXPECT_EQ(a, BigInt(100));
  EXPECT_GT(BigInt::FromDecimal("18446744073709551616"), BigInt(~0ull));
}

TEST(BigInt, AddSubInverse) {
  util::Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const BigInt a = BigInt::RandomBits(rng, 200);
    const BigInt b = BigInt::RandomBits(rng, 150);
    EXPECT_EQ(BigInt::Sub(BigInt::Add(a, b), b), a);
    EXPECT_EQ(BigInt::Sub(BigInt::Add(a, b), a), b);
  }
}

TEST(BigInt, MulDivInverse) {
  util::Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    const BigInt a = BigInt::RandomBits(rng, 300);
    const BigInt b = BigInt::RandomBits(rng, 100 + i);
    BigInt q, r;
    BigInt::DivMod(BigInt::Mul(a, b), b, &q, &r);
    EXPECT_EQ(q, a);
    EXPECT_TRUE(r.IsZero());
  }
}

TEST(BigInt, DivModIdentity) {
  util::Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const BigInt a = BigInt::RandomBits(rng, 256);
    const BigInt m = BigInt::RandomBits(rng, 2 + static_cast<int>(rng.NextBelow(200)));
    BigInt q, r;
    BigInt::DivMod(a, m, &q, &r);
    EXPECT_LT(BigInt::Compare(r, m), 0);
    EXPECT_EQ(BigInt::Add(BigInt::Mul(q, m), r), a);
  }
}

TEST(BigInt, KnuthDAddBackCase) {
  // A case engineered to exercise the rare D6 add-back path: divisor with
  // high limb pattern and dividend just below a multiple.
  const BigInt a = BigInt::FromDecimal("340282366920938463426481119284349108225");
  const BigInt b = BigInt::FromDecimal("18446744073709551615");
  BigInt q, r;
  BigInt::DivMod(a, b, &q, &r);
  EXPECT_EQ(BigInt::Add(BigInt::Mul(q, b), r), a);
  EXPECT_LT(BigInt::Compare(r, b), 0);
}

TEST(BigInt, Shifts) {
  const BigInt one(1);
  EXPECT_EQ(one.ShiftLeft(100).BitLength(), 101);
  EXPECT_EQ(one.ShiftLeft(100).ShiftRight(100), one);
  const BigInt v = BigInt::FromDecimal("123456789123456789");
  EXPECT_EQ(v.ShiftLeft(37).ShiftRight(37), v);
  EXPECT_TRUE(v.ShiftRight(100).IsZero());
}

TEST(BigInt, BitAccess) {
  const BigInt v(0b101101);
  EXPECT_TRUE(v.Bit(0));
  EXPECT_FALSE(v.Bit(1));
  EXPECT_TRUE(v.Bit(2));
  EXPECT_TRUE(v.Bit(3));
  EXPECT_FALSE(v.Bit(4));
  EXPECT_TRUE(v.Bit(5));
  EXPECT_FALSE(v.Bit(63));
  EXPECT_EQ(v.BitLength(), 6);
}

TEST(BigInt, ModExpSmall) {
  // 3^7 mod 10 = 2187 mod 10 = 7
  EXPECT_EQ(BigInt::ModExp(BigInt(3), BigInt(7), BigInt(10)).Low64(), 7u);
  // Fermat: 2^(p-1) = 1 mod p for prime p.
  const BigInt p(1000003);
  EXPECT_EQ(BigInt::ModExp(BigInt(2), BigInt(1000002), p).Low64(), 1u);
}

TEST(BigInt, ModExpProperties) {
  util::Rng rng(6);
  const BigInt m = BigInt::RandomPrime(rng, 96);
  for (int i = 0; i < 10; ++i) {
    const BigInt a = BigInt::RandomBits(rng, 80);
    const BigInt x = BigInt::RandomBits(rng, 40);
    const BigInt y = BigInt::RandomBits(rng, 40);
    // a^x * a^y = a^(x+y) (mod m)
    const BigInt lhs = BigInt::Mod(
        BigInt::Mul(BigInt::ModExp(a, x, m), BigInt::ModExp(a, y, m)), m);
    const BigInt rhs = BigInt::ModExp(a, BigInt::Add(x, y), m);
    EXPECT_EQ(lhs, rhs);
  }
}

TEST(BigInt, ModInverse) {
  util::Rng rng(7);
  const BigInt m = BigInt::RandomPrime(rng, 128);
  for (int i = 0; i < 20; ++i) {
    const BigInt a = BigInt::RandomBits(rng, 100);
    BigInt inv;
    ASSERT_TRUE(BigInt::ModInverse(a, m, &inv));
    EXPECT_EQ(BigInt::Mod(BigInt::Mul(a, inv), m), BigInt(1));
  }
}

TEST(BigInt, ModInverseFailsOnCommonFactor) {
  BigInt inv;
  EXPECT_FALSE(BigInt::ModInverse(BigInt(6), BigInt(9), &inv));
  EXPECT_FALSE(BigInt::ModInverse(BigInt(0), BigInt(9), &inv));
  EXPECT_TRUE(BigInt::ModInverse(BigInt(2), BigInt(9), &inv));
  EXPECT_EQ(BigInt::Mod(BigInt::Mul(BigInt(2), inv), BigInt(9)), BigInt(1));
}

TEST(BigInt, Gcd) {
  EXPECT_EQ(BigInt::Gcd(BigInt(12), BigInt(18)).Low64(), 6u);
  EXPECT_EQ(BigInt::Gcd(BigInt(17), BigInt(13)).Low64(), 1u);
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(5)).Low64(), 5u);
}

TEST(BigInt, PrimalityKnownValues) {
  util::Rng rng(8);
  for (std::uint64_t p : {2ull, 3ull, 5ull, 7ull, 97ull, 65537ull,
                          4294967291ull, 1000000007ull}) {
    EXPECT_TRUE(BigInt::IsProbablePrime(BigInt(p), rng)) << p;
  }
  for (std::uint64_t c : {1ull, 4ull, 100ull, 65535ull, 4294967295ull,
                          1000000007ull * 3}) {
    EXPECT_FALSE(BigInt::IsProbablePrime(BigInt(c), rng)) << c;
  }
}

TEST(BigInt, CarmichaelNumbersRejected) {
  util::Rng rng(9);
  // Carmichael numbers fool Fermat but not Miller–Rabin.
  for (std::uint64_t c : {561ull, 1105ull, 1729ull, 41041ull, 825265ull}) {
    EXPECT_FALSE(BigInt::IsProbablePrime(BigInt(c), rng)) << c;
  }
}

TEST(BigInt, RandomPrimeHasExactBits) {
  util::Rng rng(10);
  for (int bits : {32, 48, 64}) {
    const BigInt p = BigInt::RandomPrime(rng, bits);
    EXPECT_EQ(p.BitLength(), bits);
    EXPECT_TRUE(BigInt::IsProbablePrime(p, rng));
  }
}

TEST(BigInt, RandomBelowIsBelow) {
  util::Rng rng(11);
  const BigInt bound = BigInt::FromDecimal("987654321987654321987");
  for (int i = 0; i < 100; ++i)
    EXPECT_LT(BigInt::Compare(BigInt::RandomBelow(rng, bound), bound), 0);
}

// ----------------------------------------------------------------- rsa ----

class RsaTest : public ::testing::Test {
 protected:
  static const RsaPrivateKey& Key() {
    static const RsaPrivateKey key = [] {
      util::Rng rng(12);
      return RsaGenerateKey(rng, 512);
    }();
    return key;
  }
};

TEST_F(RsaTest, SignVerify) {
  const Bytes message = ToBytes("hello, revocation");
  const Bytes signature = RsaSign(Key(), message);
  EXPECT_EQ(signature.size(), static_cast<std::size_t>(Key().pub.ModulusBytes()));
  EXPECT_TRUE(RsaVerify(Key().pub, message, signature));
}

TEST_F(RsaTest, TamperedMessageRejected) {
  const Bytes message = ToBytes("hello, revocation");
  Bytes signature = RsaSign(Key(), message);
  EXPECT_FALSE(RsaVerify(Key().pub, ToBytes("hello, revocatioN"), signature));
}

TEST_F(RsaTest, TamperedSignatureRejected) {
  const Bytes message = ToBytes("msg");
  Bytes signature = RsaSign(Key(), message);
  signature[5] ^= 0x01;
  EXPECT_FALSE(RsaVerify(Key().pub, message, signature));
}

TEST_F(RsaTest, WrongLengthSignatureRejected) {
  const Bytes message = ToBytes("msg");
  Bytes signature = RsaSign(Key(), message);
  signature.pop_back();
  EXPECT_FALSE(RsaVerify(Key().pub, message, signature));
  signature.push_back(0);
  signature.push_back(0);
  EXPECT_FALSE(RsaVerify(Key().pub, message, signature));
}

TEST_F(RsaTest, WrongKeyRejected) {
  util::Rng rng(13);
  const RsaPrivateKey other = RsaGenerateKey(rng, 512);
  const Bytes message = ToBytes("msg");
  const Bytes signature = RsaSign(Key(), message);
  EXPECT_FALSE(RsaVerify(other.pub, message, signature));
}

TEST_F(RsaTest, DeterministicSignature) {
  // PKCS#1 v1.5 is deterministic: same key + message => same signature.
  const Bytes message = ToBytes("determinism");
  EXPECT_EQ(RsaSign(Key(), message), RsaSign(Key(), message));
}

TEST(Rsa, KeyGeneration768) {
  util::Rng rng(14);
  const RsaPrivateKey key = RsaGenerateKey(rng, 768);
  EXPECT_EQ(key.pub.n.BitLength(), 768);
  EXPECT_EQ(key.pub.e.Low64(), 65537u);
  const Bytes msg = ToBytes("768-bit key test");
  EXPECT_TRUE(RsaVerify(key.pub, msg, RsaSign(key, msg)));
}

// -------------------------------------------------------------- signer ----

TEST(Signer, SimSignVerify) {
  util::Rng rng(15);
  const KeyPair key = GenerateKeyPair(rng, KeyType::kSimSha256);
  const Bytes message = ToBytes("tbs bytes");
  const Bytes signature = Sign(key, message);
  EXPECT_EQ(signature.size(), kSha256DigestSize);
  EXPECT_TRUE(Verify(key.Public(), message, signature));
}

TEST(Signer, SimTamperRejected) {
  util::Rng rng(16);
  const KeyPair key = GenerateKeyPair(rng, KeyType::kSimSha256);
  const Bytes message = ToBytes("tbs bytes");
  Bytes signature = Sign(key, message);
  signature[0] ^= 1;
  EXPECT_FALSE(Verify(key.Public(), message, signature));
  EXPECT_FALSE(Verify(key.Public(), ToBytes("tbs bytez"), Sign(key, message)));
}

TEST(Signer, SimWrongKeyRejected) {
  util::Rng rng(17);
  const KeyPair a = GenerateKeyPair(rng, KeyType::kSimSha256);
  const KeyPair b = GenerateKeyPair(rng, KeyType::kSimSha256);
  const Bytes message = ToBytes("m");
  EXPECT_FALSE(Verify(b.Public(), message, Sign(a, message)));
}

TEST(Signer, RsaThroughInterface) {
  util::Rng rng(18);
  const KeyPair key = GenerateKeyPair(rng, KeyType::kRsaSha256, 512);
  const Bytes message = ToBytes("interface test");
  const Bytes signature = Sign(key, message);
  EXPECT_TRUE(Verify(key.Public(), message, signature));
  // Cross-scheme verification fails.
  KeyPair sim = GenerateKeyPair(rng, KeyType::kSimSha256);
  EXPECT_FALSE(Verify(sim.Public(), message, signature));
}

TEST(Signer, SimKeyFromLabelDeterministic) {
  const KeyPair a = SimKeyFromLabel("leaf:abc");
  const KeyPair b = SimKeyFromLabel("leaf:abc");
  const KeyPair c = SimKeyFromLabel("leaf:abd");
  EXPECT_EQ(a.sim_id, b.sim_id);
  EXPECT_NE(a.sim_id, c.sim_id);
}

// Both factories cache the HMAC mid-states of sim_id; the tag must stay
// HMAC-SHA256(sim_id, m) for every message length around the block size,
// and a pair assembled by hand (no cached key) must sign the same bytes.
TEST(Signer, SimSignUsesCachedKeyAndEqualsHmac) {
  util::Rng rng(20);
  const KeyPair generated = GenerateKeyPair(rng, KeyType::kSimSha256);
  const KeyPair labelled = SimKeyFromLabel("ca:cached");
  for (const KeyPair* key : {&generated, &labelled}) {
    ASSERT_TRUE(key->sim_mac.has_value());
    KeyPair by_hand;
    by_hand.sim_id = key->sim_id;
    ASSERT_FALSE(by_hand.sim_mac.has_value());
    for (const std::size_t n : {0u, 1u, 55u, 56u, 63u, 64u, 65u, 333u}) {
      Bytes message(n);
      rng.Fill(message.data(), message.size());
      const Sha256Digest tag = HmacSha256(key->sim_id, message);
      const Bytes want(tag.begin(), tag.end());
      EXPECT_EQ(Sign(*key, message), want) << n;
      EXPECT_EQ(Sign(by_hand, message), want) << n;
      EXPECT_TRUE(Verify(key->Public(), message, want)) << n;
    }
  }
}

TEST(Signer, PublicKeyEquality) {
  util::Rng rng(19);
  const KeyPair a = GenerateKeyPair(rng, KeyType::kSimSha256);
  EXPECT_TRUE(a.Public() == a.Public());
  const KeyPair b = GenerateKeyPair(rng, KeyType::kSimSha256);
  EXPECT_FALSE(a.Public() == b.Public());
}

}  // namespace
}  // namespace rev::crypto
