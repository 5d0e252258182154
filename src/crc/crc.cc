#include "crc/crc.hh"

#include "common/bits.hh"
#include "common/log.hh"

namespace axmemo {

CrcSpec
CrcSpec::crc8()
{
    return {8, 0x07, 0x00, 0x00};
}

CrcSpec
CrcSpec::crc16()
{
    return {16, 0x1021, 0xffff, 0x0000};
}

CrcSpec
CrcSpec::crc24()
{
    return {24, 0x864cfb, 0xb704ce, 0x000000};
}

CrcSpec
CrcSpec::crc32()
{
    return {32, 0x04c11db7ull, 0xffffffffull, 0xffffffffull};
}

CrcSpec
CrcSpec::crc32c()
{
    return {32, 0x1edc6f41ull, 0xffffffffull, 0xffffffffull, true};
}

CrcSpec
CrcSpec::crc32Reflected()
{
    return {32, 0x04c11db7ull, 0xffffffffull, 0xffffffffull, true};
}

CrcSpec
CrcSpec::crc64()
{
    return {64, 0x42f0e1eba9ea3693ull, 0ull, 0ull};
}

CrcSpec
CrcSpec::ofWidth(unsigned width)
{
    switch (width) {
      case 8:
        return crc8();
      case 16:
        return crc16();
      case 24:
        return crc24();
      case 32:
        return crc32();
      case 64:
        return crc64();
      default:
        break;
    }
    if (width == 0 || width > 64)
        axm_fatal("unsupported CRC width ", width);
    // Derive a polynomial for odd widths by folding CRC-64's polynomial
    // down and forcing the low bit (so the polynomial is never trivial).
    CrcSpec spec;
    spec.width = width;
    spec.poly = (crc64().poly & maskLow(width)) | 1ull;
    spec.init = maskLow(width);
    spec.xorOut = maskLow(width);
    return spec;
}

CrcEngine::CrcEngine(const CrcSpec &spec)
    : spec_(spec), mask_(maskLow(spec.width)),
      topBit_(1ull << (spec.width - 1)), table_(256, 0)
{
    if (spec.width == 0 || spec.width > 64)
        axm_fatal("unsupported CRC width ", spec.width);
    rpoly_ = bitReverse(spec_.poly & mask_, spec_.width);

    // The table entry for byte b is the register evolution of feeding b
    // from a zero register; identical to running 8 bit-serial steps
    // (MSB first, or LSB first for reflected specs). For widths < 8 the
    // construction still works in both orders.
    for (unsigned b = 0; b < 256; ++b)
        table_[b] = updateByteSerial(0, static_cast<std::uint8_t>(b));

    // Slice-by-8 tables for byte-multiple widths: slice k holds the
    // register evolution of byte b followed by k zero bytes, so a block
    // of up to 8 input bytes folds into independent lookups (the serial
    // dependency chain of updateByte disappears). Non-byte widths keep
    // the serial paths; results are identical either way by linearity.
    if (spec_.width % 8 == 0) {
        stateBytes_ = spec_.width / 8;
        slice_.resize(8 * 256);
        for (unsigned b = 0; b < 256; ++b)
            slice_[b] = table_[b];
        for (unsigned k = 1; k < 8; ++k) {
            for (unsigned b = 0; b < 256; ++b) {
                const std::uint64_t prev = slice_[(k - 1) * 256 + b];
                slice_[k * 256 + b] =
                    spec_.reflected
                        ? (prev >> 8) ^
                              table_[static_cast<std::uint8_t>(prev)]
                        : ((prev << 8) ^
                           table_[static_cast<std::uint8_t>(
                               prev >> (spec_.width - 8))]) &
                              mask_;
            }
        }
    }

}

std::uint64_t
CrcEngine::updateBlock(std::uint64_t state, const std::uint8_t *data,
                       unsigned n) const
{
    // Feeding n >= stateBytes_ bytes shifts the whole register out, so
    // the new state is a pure XOR of per-byte contributions: state byte
    // j exits after j+1 steps and then sees n-1-j zero bytes (slice
    // n-1-j), merged with input byte j by linearity; the remaining
    // input bytes contribute their own slices. Reflected specs exit the
    // register low byte first, everything else is the mirror image.
    std::uint64_t acc = 0;
    unsigned i = 0;
    if (spec_.reflected) {
        for (; i < stateBytes_; ++i) {
            const auto s = static_cast<std::uint8_t>(state >> (8 * i));
            acc ^= sliceAt(n - 1 - i, s ^ data[i]);
        }
    } else {
        for (; i < stateBytes_; ++i) {
            const auto s = static_cast<std::uint8_t>(
                state >> (spec_.width - 8 * (i + 1)));
            acc ^= sliceAt(n - 1 - i, s ^ data[i]);
        }
    }
    for (; i < n; ++i)
        acc ^= sliceAt(n - 1 - i, data[i]);
    return acc;
}

std::uint64_t
CrcEngine::updateBit(std::uint64_t state, bool bit) const
{
    if (spec_.reflected) {
        const bool feedback = (state & 1) != 0;
        state >>= 1;
        if (bit ^ feedback)
            state ^= rpoly_;
        return state;
    }
    const bool feedback = (state & topBit_) != 0;
    state = (state << 1) & mask_;
    if (bit ^ feedback)
        state ^= spec_.poly & mask_;
    return state;
}

std::uint64_t
CrcEngine::updateByteSerial(std::uint64_t state, std::uint8_t byte) const
{
    if (spec_.reflected) {
        for (int i = 0; i < 8; ++i)
            state = updateBit(state, (byte >> i) & 1);
        return state;
    }
    for (int i = 7; i >= 0; --i)
        state = updateBit(state, (byte >> i) & 1);
    return state;
}

std::uint64_t
CrcEngine::updateByte(std::uint64_t state, std::uint8_t byte) const
{
    if (spec_.reflected) {
        // Works for every width: for w < 8 the whole register exits
        // during the 8 steps and combines with the low input bits, so
        // the index (state ^ byte) & 0xff is exact by linearity.
        const auto idx = static_cast<std::uint8_t>(state ^ byte);
        return ((state >> 8) ^ table_[idx]) & mask_;
    }
    if (spec_.width >= 8) {
        const auto idx = static_cast<std::uint8_t>(
            (state >> (spec_.width - 8)) ^ byte);
        return ((state << 8) ^ table_[idx]) & mask_;
    }
    // Narrow non-reflected CRCs cannot index the table with register
    // bits alone; fall back to the (identical) serial evolution.
    return updateByteSerial(state, byte);
}

std::uint64_t
CrcEngine::update(std::uint64_t state, const void *data,
                  std::size_t len) const
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    if (stateBytes_ == 4 && !spec_.reflected) {
        // Unrolled 32-bit hot case (the LUT-tag hash): constant slice
        // indices let the compiler hoist the eight table bases.
        for (; len >= 8; bytes += 8, len -= 8) {
            const auto s = static_cast<std::uint32_t>(state);
            state = sliceAt(7, static_cast<std::uint8_t>(s >> 24) ^
                                   bytes[0]) ^
                    sliceAt(6, static_cast<std::uint8_t>(s >> 16) ^
                                   bytes[1]) ^
                    sliceAt(5, static_cast<std::uint8_t>(s >> 8) ^
                                   bytes[2]) ^
                    sliceAt(4, static_cast<std::uint8_t>(s) ^
                                   bytes[3]) ^
                    sliceAt(3, bytes[4]) ^ sliceAt(2, bytes[5]) ^
                    sliceAt(1, bytes[6]) ^ sliceAt(0, bytes[7]);
        }
        if (len >= 4)
            return updateBlock(state, bytes,
                               static_cast<unsigned>(len));
    } else if (stateBytes_ != 0) {
        for (; len >= 8; bytes += 8, len -= 8)
            state = updateBlock(state, bytes, 8);
        if (len >= stateBytes_)
            return updateBlock(state, bytes,
                               static_cast<unsigned>(len));
    }
    for (std::size_t i = 0; i < len; ++i)
        state = updateByte(state, bytes[i]);
    return state;
}

std::uint64_t
CrcEngine::updateWord(std::uint64_t state, std::uint64_t word,
                      unsigned nbytes) const
{
    if (nbytes > 8)
        axm_panic("CrcEngine::updateWord of ", nbytes, " bytes");
    if (stateBytes_ != 0 && nbytes >= stateBytes_) {
        std::uint8_t bytes[8];
        for (unsigned i = 0; i < nbytes; ++i)
            bytes[i] = static_cast<std::uint8_t>(word >> (8 * i));
        return updateBlock(state, bytes, nbytes);
    }
    for (unsigned i = 0; i < nbytes; ++i)
        state = updateByte(state, static_cast<std::uint8_t>(word >> (8 * i)));
    return state;
}

std::uint64_t
CrcEngine::compute(const void *data, std::size_t len) const
{
    return finalize(update(initial(), data, len));
}

} // namespace axmemo
