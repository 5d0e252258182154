/**
 * @file
 * CRC engine tests: published check values, bit-serial vs table-driven
 * equivalence, streaming properties, avalanche behaviour, and the
 * hardware cost model's calibration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "common/rng.hh"
#include "crc/crc.hh"
#include "crc/hw_model.hh"

namespace axmemo {
namespace {

const char kCheck[] = "123456789";

TEST(Crc, Crc32Bzip2CheckValue)
{
    // poly 0x04C11DB7, init/xorout 0xFFFFFFFF, unreflected: CRC-32/BZIP2.
    const CrcEngine engine(CrcSpec::crc32());
    EXPECT_EQ(engine.compute(kCheck, 9), 0xfc891918ull);
}

TEST(Crc, Crc16CcittFalseCheckValue)
{
    const CrcEngine engine(CrcSpec::crc16());
    EXPECT_EQ(engine.compute(kCheck, 9), 0x29b1ull);
}

TEST(Crc, Crc8CheckValue)
{
    const CrcEngine engine(CrcSpec::crc8());
    EXPECT_EQ(engine.compute(kCheck, 9), 0xf4ull);
}

TEST(Crc, Crc24OpenPgpCheckValue)
{
    const CrcEngine engine(CrcSpec::crc24());
    EXPECT_EQ(engine.compute(kCheck, 9), 0x21cf02ull);
}

TEST(Crc, Crc64EcmaCheckValue)
{
    const CrcEngine engine(CrcSpec::crc64());
    EXPECT_EQ(engine.compute(kCheck, 9), 0x6c40df5f0b497347ull);
}

TEST(Crc, EmptyInputIsInitXorOut)
{
    const CrcEngine engine(CrcSpec::crc32());
    EXPECT_EQ(engine.compute(nullptr, 0),
              (0xffffffffull ^ 0xffffffffull));
}

/** Parameterized over CRC widths. */
class CrcWidthTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CrcWidthTest, SerialEqualsTableDriven)
{
    const CrcEngine engine(CrcSpec::ofWidth(GetParam()));
    Rng rng(GetParam());
    std::uint64_t serial = engine.initial();
    std::uint64_t table = engine.initial();
    for (int i = 0; i < 256; ++i) {
        const auto byte = static_cast<std::uint8_t>(rng.below(256));
        serial = engine.updateByteSerial(serial, byte);
        table = engine.updateByte(table, byte);
        ASSERT_EQ(serial, table) << "diverged at byte " << i;
    }
}

TEST_P(CrcWidthTest, StreamingEqualsOneShot)
{
    const CrcEngine engine(CrcSpec::ofWidth(GetParam()));
    Rng rng(GetParam() * 7);
    std::vector<std::uint8_t> data(97);
    for (auto &byte : data)
        byte = static_cast<std::uint8_t>(rng.below(256));

    // Chunked accumulation (how the HVRs use it) must equal one shot.
    std::uint64_t state = engine.initial();
    std::size_t pos = 0;
    for (std::size_t chunk : {5u, 13u, 1u, 40u, 38u}) {
        state = engine.update(state, data.data() + pos, chunk);
        pos += chunk;
    }
    ASSERT_EQ(pos, data.size());
    EXPECT_EQ(engine.finalize(state),
              engine.compute(data.data(), data.size()));
}

TEST_P(CrcWidthTest, ResultFitsWidth)
{
    const unsigned width = GetParam();
    const CrcEngine engine(CrcSpec::ofWidth(width));
    const std::uint64_t crc = engine.compute(kCheck, 9);
    if (width < 64) {
        EXPECT_EQ(crc >> width, 0u);
    }
}

TEST_P(CrcWidthTest, EveryInputBitMatters)
{
    // Section 3.1 property 2: flipping any single input bit changes the
    // checksum (linearity of CRC guarantees it).
    const CrcEngine engine(CrcSpec::ofWidth(GetParam()));
    std::uint8_t data[8] = {0x12, 0x34, 0x56, 0x78,
                            0x9a, 0xbc, 0xde, 0xf0};
    const std::uint64_t reference = engine.compute(data, 8);
    for (unsigned bit = 0; bit < 64; ++bit) {
        data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_NE(engine.compute(data, 8), reference)
            << "insensitive to bit " << bit;
        data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, CrcWidthTest,
                         ::testing::Values(8u, 16u, 24u, 32u, 48u,
                                           64u));

TEST(Crc, UpdateWordMatchesLittleEndianBytes)
{
    const CrcEngine engine(CrcSpec::crc32());
    const std::uint64_t word = 0x1122334455667788ull;
    const std::uint8_t bytes[] = {0x88, 0x77, 0x66, 0x55,
                                  0x44, 0x33, 0x22, 0x11};
    for (unsigned n : {1u, 2u, 4u, 8u}) {
        const std::uint64_t viaWord =
            engine.updateWord(engine.initial(), word, n);
        const std::uint64_t viaBytes =
            engine.update(engine.initial(), bytes, n);
        EXPECT_EQ(viaWord, viaBytes) << n << " bytes";
    }
}

TEST(Crc, UpdateBitMatchesByteStep)
{
    const CrcEngine engine(CrcSpec::crc32());
    std::uint64_t viaBits = engine.initial();
    for (int i = 7; i >= 0; --i)
        viaBits = engine.updateBit(viaBits, (0xa5 >> i) & 1);
    EXPECT_EQ(viaBits, engine.updateByte(engine.initial(), 0xa5));
}

TEST(Crc, CollisionsRareAt32Bits)
{
    // 10k random 24-byte inputs (the Blackscholes shape) must not
    // collide in a 32-bit CRC (expected collisions ~0.01).
    const CrcEngine engine(CrcSpec::crc32());
    Rng rng(42);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 10000; ++i) {
        std::uint8_t data[24];
        for (auto &byte : data)
            byte = static_cast<std::uint8_t>(rng.below(256));
        seen.insert(engine.compute(data, 24));
    }
    EXPECT_EQ(seen.size(), 10000u);
}

TEST(Crc, CollisionsCommonAt8Bits)
{
    const CrcEngine engine(CrcSpec::crc8());
    Rng rng(43);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        std::uint8_t data[24];
        for (auto &byte : data)
            byte = static_cast<std::uint8_t>(rng.below(256));
        seen.insert(engine.compute(data, 24));
    }
    EXPECT_LE(seen.size(), 256u);
}

TEST(Crc, RejectsBadWidth)
{
    EXPECT_THROW(CrcSpec::ofWidth(0), std::runtime_error);
    EXPECT_THROW(CrcSpec::ofWidth(65), std::runtime_error);
}

// ------------------------------------------------- slice-by-8 fast path

std::uint8_t
bitrev8(std::uint8_t b)
{
    b = static_cast<std::uint8_t>((b & 0xf0) >> 4 | (b & 0x0f) << 4);
    b = static_cast<std::uint8_t>((b & 0xcc) >> 2 | (b & 0x33) << 2);
    return static_cast<std::uint8_t>((b & 0xaa) >> 1 | (b & 0x55) << 1);
}

std::uint32_t
bitrev32(std::uint32_t v)
{
    std::uint32_t out = 0;
    for (int i = 0; i < 32; ++i)
        out |= ((v >> i) & 1u) << (31 - i);
    return out;
}

TEST(Crc, ReflectedCrc32CheckValue)
{
    // The canonical CRC-32 check value 0xCBF43926 (zlib, refin/refout
    // true) belongs to the *reflected* algorithm. The engine is the
    // non-reflected Rocksoft model, but reflection is an isomorphism:
    // feeding bit-reversed input bytes and bit-reversing the final
    // register computes the reflected CRC exactly (the all-ones init is
    // its own reflection). This pins the engine to the published
    // IEEE 802.3 polynomial, not just to self-consistency.
    const CrcEngine engine(CrcSpec::crc32());
    std::uint64_t state = engine.initial();
    for (int i = 0; i < 9; ++i)
        state = engine.updateByte(
            state, bitrev8(static_cast<std::uint8_t>(kCheck[i])));
    const std::uint32_t reflected =
        bitrev32(static_cast<std::uint32_t>(state)) ^ 0xffffffffu;
    EXPECT_EQ(reflected, 0xcbf43926u);
}

TEST(Crc, SlicedOnlyForByteMultipleWidths)
{
    for (unsigned width = 1; width <= 64; ++width) {
        const CrcEngine engine(CrcSpec::ofWidth(width));
        EXPECT_EQ(engine.sliced(), width % 8 == 0) << "width " << width;
    }
}

/** Advance @p state over @p len bytes one bit-serial byte step at a
 * time: the LFSR reference every bulk path is checked against. */
std::uint64_t
bitSerialUpdate(const CrcEngine &engine, std::uint64_t state,
                const std::uint8_t *data, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        state = engine.updateByteSerial(state, data[i]);
    return state;
}

/**
 * The bulk update() must be bit-identical to the bit-serial register
 * model over random data: one-shot from random states at lengths that
 * cross every internal threshold (word, slice block, 8-byte loop), and
 * streamed in random chunks of up to 32 and up to 400 bytes (streaming
 * must not observe where chunks split).
 */
void
expectBulkMatchesBitSerial(const CrcEngine &engine, unsigned seed)
{
    const unsigned width = engine.spec().width;
    const std::uint64_t mask =
        width == 64 ? ~0ull : (1ull << width) - 1;
    Rng rng(seed);
    std::vector<std::uint8_t> data(1500);
    for (auto &byte : data)
        byte = static_cast<std::uint8_t>(rng.below(256));

    for (const std::size_t len :
         {std::size_t{0}, std::size_t{1}, std::size_t{7},
          std::size_t{8}, std::size_t{15}, std::size_t{16},
          std::size_t{63}, std::size_t{255}, std::size_t{256},
          std::size_t{257}, std::size_t{511}, std::size_t{512},
          std::size_t{767}, std::size_t{1024}, std::size_t{1497}}) {
        const std::uint64_t state = rng.next() & mask;
        ASSERT_EQ(engine.update(state, data.data(), len),
                  bitSerialUpdate(engine, state, data.data(), len))
            << "width " << width << " len " << len;
    }

    struct Streaming
    {
        std::size_t total;
        unsigned maxChunk;
    };
    for (const Streaming run : {Streaming{257, 32}, Streaming{1500, 400}}) {
        const auto [total, maxChunk] = run;
        std::uint64_t bulk = engine.initial();
        std::size_t pos = 0;
        while (pos < total) {
            const std::size_t chunk = std::min<std::size_t>(
                1 + rng.below(maxChunk), total - pos);
            bulk = engine.update(bulk, data.data() + pos, chunk);
            pos += chunk;
        }
        ASSERT_EQ(bulk, bitSerialUpdate(engine, engine.initial(),
                                        data.data(), total))
            << "width " << width << " streamed " << total << " bytes";
    }
}

TEST(Crc, SliceBulkMatchesBitSerialAllWidths)
{
    for (unsigned width = 1; width <= 64; ++width)
        expectBulkMatchesBitSerial(CrcEngine(CrcSpec::ofWidth(width)),
                                   width * 1000 + 17);
}

TEST(Crc, UpdateWordMatchesBitSerialAllWidths)
{
    for (unsigned width = 1; width <= 64; ++width) {
        const CrcEngine engine(CrcSpec::ofWidth(width));
        Rng rng(width * 77 + 5);
        for (unsigned nbytes = 1; nbytes <= 8; ++nbytes) {
            const std::uint64_t word = rng.next();
            const std::uint64_t state = rng.next() &
                ((width == 64) ? ~0ull : ((1ull << width) - 1));
            std::uint64_t serial = state;
            for (unsigned i = 0; i < nbytes; ++i)
                serial = engine.updateByteSerial(
                    serial, static_cast<std::uint8_t>(word >> (8 * i)));
            ASSERT_EQ(engine.updateWord(state, word, nbytes), serial)
                << "width " << width << " nbytes " << nbytes;
        }
    }
}

// ------------------------------------------ reflected (LSB-first) specs

TEST(Crc, Crc32cCheckValue)
{
    // CRC-32C (Castagnoli, refin/refout true): check value 0xE3069283.
    const CrcEngine engine(CrcSpec::crc32c());
    EXPECT_EQ(engine.compute(kCheck, 9), 0xe3069283ull);
}

TEST(Crc, Crc32ReflectedCheckValue)
{
    // The zlib/PNG CRC-32 check value, now computed natively instead of
    // through the bit-reversal isomorphism above.
    const CrcEngine engine(CrcSpec::crc32Reflected());
    EXPECT_EQ(engine.compute(kCheck, 9), 0xcbf43926ull);
}

CrcSpec
reflectedOfWidth(unsigned width)
{
    CrcSpec spec = CrcSpec::ofWidth(width);
    spec.reflected = true;
    return spec;
}

TEST(Crc, ReflectedSerialEqualsTableDrivenAllWidths)
{
    for (unsigned width = 1; width <= 64; ++width) {
        const CrcEngine engine(reflectedOfWidth(width));
        Rng rng(width * 31 + 2);
        std::uint64_t serial = engine.initial();
        std::uint64_t table = engine.initial();
        for (int i = 0; i < 64; ++i) {
            const auto byte = static_cast<std::uint8_t>(rng.below(256));
            serial = engine.updateByteSerial(serial, byte);
            table = engine.updateByte(table, byte);
            ASSERT_EQ(serial, table)
                << "width " << width << " diverged at byte " << i;
        }
    }
}

TEST(Crc, ReflectedSliceBulkMatchesBitSerialAllWidths)
{
    for (unsigned width = 1; width <= 64; ++width)
        expectBulkMatchesBitSerial(CrcEngine(reflectedOfWidth(width)),
                                   width * 1000 + 23);
}

TEST(Crc, ReflectedMatchesBitReversalIsomorphism)
{
    // The native reflected engine must agree with computing the same
    // CRC through the non-reflected engine on bit-reversed bytes.
    const CrcEngine reflected(CrcSpec::crc32Reflected());
    const CrcEngine normal(CrcSpec::crc32());
    Rng rng(99);
    std::vector<std::uint8_t> data(64);
    for (auto &byte : data)
        byte = static_cast<std::uint8_t>(rng.below(256));

    std::uint64_t direct = reflected.initial();
    std::uint64_t mirror = normal.initial();
    for (const std::uint8_t byte : data) {
        direct = reflected.updateByte(direct, byte);
        mirror = normal.updateByte(mirror, bitrev8(byte));
    }
    EXPECT_EQ(static_cast<std::uint32_t>(direct),
              bitrev32(static_cast<std::uint32_t>(mirror)));
}

// ----------------------------------------------------------- hw model

TEST(CrcHwModel, Table5Calibration)
{
    const CrcHwModel model{CrcHwConfig{}};
    EXPECT_NEAR(model.areaMm2(), 0.0146, 1e-6);
    EXPECT_NEAR(model.energyPerOpPj(), 2.9143, 1e-6);
    EXPECT_NEAR(model.latencyNs(), 0.4133, 1e-6);
    EXPECT_EQ(model.config().bytesPerCycle(), 4u);
}

TEST(CrcHwModel, CyclesForBytes)
{
    const CrcHwModel model{CrcHwConfig{}};
    EXPECT_EQ(model.cyclesForBytes(0), 0u);
    EXPECT_EQ(model.cyclesForBytes(1), 1u);
    EXPECT_EQ(model.cyclesForBytes(4), 1u);
    EXPECT_EQ(model.cyclesForBytes(5), 2u);
    EXPECT_EQ(model.cyclesForBytes(36), 9u);
}

TEST(CrcHwModel, ScalesMonotonically)
{
    CrcHwConfig narrow;
    narrow.width = 16;
    CrcHwConfig wide;
    wide.width = 64;
    EXPECT_LT(CrcHwModel(narrow).areaMm2(),
              CrcHwModel(wide).areaMm2());
    EXPECT_LT(CrcHwModel(narrow).energyPerOpPj(),
              CrcHwModel(wide).energyPerOpPj());
    EXPECT_LT(CrcHwModel(narrow).latencyNs(),
              CrcHwModel(wide).latencyNs());
}

TEST(CrcHwModel, ConstantRamSize)
{
    // 2^n x m bits per stage (Fig. 3), times the unroll factor.
    const CrcHwModel model{CrcHwConfig{}};
    EXPECT_EQ(model.constantRamBits(), 256u * 32u * 4u);
}

TEST(CrcHwModel, RejectsBadConfigs)
{
    CrcHwConfig bad;
    bad.bitsPerStage = 3;
    bad.unroll = 3; // 9 bits per cycle: not byte-sized
    EXPECT_THROW(CrcHwModel{bad}, std::runtime_error);
}

} // namespace
} // namespace axmemo
