/**
 * @file
 * Generic cyclic-redundancy-check engine (Section 3.1).
 *
 * AxMemo hashes the (possibly truncated) memoization inputs with a CRC and
 * uses the checksum as the fixed-size LUT tag. The engine below supports any
 * width up to 64 bits, any generator polynomial, and both the normal
 * (MSB-first) and reflected (LSB-first) bit orders, with functionally
 * identical implementations at every speed tier:
 *
 *  - updateBitSerial(): one input bit per step, the direct software model of
 *    the hardware LFSR-with-input-XOR of Fig. 3;
 *  - updateByte(): 8-bit-parallel table-driven step, the software analogue
 *    of the paper's 8-bit parallel hardware unit (the 256-entry table is the
 *    2^n x m-bit constant RAM of Fig. 3).
 *
 * For byte-multiple widths the engine additionally builds slice-by-8
 * tables (slice k = the byte table advanced by k zero bytes), and the
 * bulk entry points update()/updateWord() consume up to 8 bytes per
 * step as independent table lookups instead of 8 dependent register
 * steps. CRC is GF(2)-linear, so the sliced step is bit-identical to
 * the serial evolution by construction; narrow or odd widths simply
 * fall back to the serial paths (DESIGN.md §7).
 *
 * Slice-by-8 is the only bulk path. The memo unit hashes with
 * non-reflected CRC-32 (or CrcSpec::ofWidth) through updateWord(), one
 * register at a time, and its simulated cost comes from CrcHwModel, so a
 * faster host kernel could move nothing the paper measures (DESIGN.md
 * §10). updateByteSerial() and updateByte() stay as the references the
 * sliced paths are tested against.
 *
 * Streaming matters: the memoization unit accumulates inputs as they arrive
 * (property 1 in Section 3.1), so the engine exposes explicit state that the
 * hash-value registers can hold between ld_crc/reg_crc instructions.
 */

#ifndef AXMEMO_CRC_CRC_HH
#define AXMEMO_CRC_CRC_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace axmemo {

/** Parameters of a CRC algorithm (Rocksoft model). */
struct CrcSpec
{
    /** Checksum width in bits (1..64). */
    unsigned width = 32;
    /** Generator polynomial in normal (MSB-first) form, without the
     * implicit x^width term — also for reflected specs, where the
     * engine bit-reverses it internally. */
    std::uint64_t poly = 0x04c11db7ull;
    /** Initial shift-register contents. */
    std::uint64_t init = 0xffffffffull;
    /** Value XORed into the register on finalize. */
    std::uint64_t xorOut = 0xffffffffull;
    /** LSB-first (reflected) processing: input bytes enter low bit
     * first and the register shifts right. */
    bool reflected = false;

    /** CRC-8 (poly 0x07, as in SMBus). */
    static CrcSpec crc8();
    /** CRC-16/CCITT-FALSE. */
    static CrcSpec crc16();
    /** CRC-24 (OpenPGP polynomial). */
    static CrcSpec crc24();
    /** CRC-32 (IEEE 802.3 polynomial, non-reflected form). */
    static CrcSpec crc32();
    /** CRC-32C (Castagnoli, poly 0x1edc6f41, reflected). */
    static CrcSpec crc32c();
    /** CRC-32/ISO-HDLC (the zlib/PNG CRC): IEEE polynomial, reflected. */
    static CrcSpec crc32Reflected();
    /** CRC-64/ECMA-182. */
    static CrcSpec crc64();

    /** Spec for an arbitrary width, derived from CRC-64's polynomial. */
    static CrcSpec ofWidth(unsigned width);
};

/** Stateful CRC computation over a byte stream. */
class CrcEngine
{
  public:
    /** Build the 8-bit-parallel constant table (and, for byte-multiple
     * widths, the slice-by-8 tables) for @p spec. */
    explicit CrcEngine(const CrcSpec &spec = CrcSpec::crc32());

    /** The algorithm parameters in use. */
    const CrcSpec &spec() const { return spec_; }

    /** @return the initial register state. */
    std::uint64_t initial() const { return spec_.init & mask_; }

    /**
     * Advance @p state by one input bit through the LFSR model of Fig. 3:
     * the XOR of the input bit and the feedback bit drives the register.
     */
    std::uint64_t updateBit(std::uint64_t state, bool bit) const;

    /** Advance @p state by one byte using the bit-serial model (8 steps,
     * LSB first when the spec is reflected). */
    std::uint64_t updateByteSerial(std::uint64_t state,
                                   std::uint8_t byte) const;

    /** Advance @p state by one byte using the table (8-bit parallel). */
    std::uint64_t updateByte(std::uint64_t state, std::uint8_t byte) const;

    /** Advance @p state over @p len bytes at @p data: slice-by-8 when
     * sliced(), else the byte table (or bit-serial for narrow
     * non-reflected widths). */
    std::uint64_t update(std::uint64_t state, const void *data,
                         std::size_t len) const;

    /** Advance @p state over the low @p nbytes bytes of @p word (LE). */
    std::uint64_t updateWord(std::uint64_t state, std::uint64_t word,
                             unsigned nbytes) const;

    /** Apply the final XOR. */
    std::uint64_t finalize(std::uint64_t state) const
    {
        return (state ^ spec_.xorOut) & mask_;
    }

    /** One-shot checksum of a byte buffer. */
    std::uint64_t compute(const void *data, std::size_t len) const;

    /** The 256-entry constant table (exposed for the hardware RAM model). */
    const std::vector<std::uint64_t> &table() const { return table_; }

    /** True when the slice-by-8 bulk path is active for this width. */
    bool sliced() const { return stateBytes_ != 0; }

  private:
    /** Advance @p state over @p n bytes (stateBytes_ <= n <= 8) as one
     * XOR of n slice-table lookups. Only valid when sliced(). */
    std::uint64_t updateBlock(std::uint64_t state,
                              const std::uint8_t *data,
                              unsigned n) const;

    std::uint64_t sliceAt(unsigned zeros, std::uint8_t byte) const
    {
        return slice_[zeros * 256u + byte];
    }

    CrcSpec spec_;
    std::uint64_t mask_;
    std::uint64_t topBit_;
    /** spec_.poly bit-reversed into the low width bits (reflected). */
    std::uint64_t rpoly_ = 0;
    std::vector<std::uint64_t> table_;
    /** 8 x 256 slice tables; empty unless width is a byte multiple. */
    std::vector<std::uint64_t> slice_;
    /** width/8 when the slice path is active, else 0. */
    unsigned stateBytes_ = 0;
};

} // namespace axmemo

#endif // AXMEMO_CRC_CRC_HH
