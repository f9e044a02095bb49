package harness

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Values are self-describing, so a read can be checked without a second
// copy of the dataset: a value names the record, field and version it was
// written as, and carries a checksum over all of its bytes.
//
//	[0:4] key index | [4] field | [5:9] version | [9:13] crc32c | filler
const valueHeader = 13

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// EncodeValue fills dst (len >= valueHeader) with version `version` of
// field `field` of record `key`.
func EncodeValue(dst []byte, key, field int, version uint32) {
	binary.LittleEndian.PutUint32(dst[0:], uint32(key))
	dst[4] = byte(field)
	binary.LittleEndian.PutUint32(dst[5:], version)
	x := uint64(key)<<40 ^ uint64(field)<<32 ^ uint64(version) ^ 0x9E3779B97F4A7C15
	var word [8]byte
	for i := valueHeader; i < len(dst); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(word[:], x)
		copy(dst[i:], word[:])
	}
	binary.LittleEndian.PutUint32(dst[9:], valueSum(dst))
}

func valueSum(v []byte) uint32 {
	return crc32.Update(crc32.Checksum(v[:9], castagnoli), castagnoli, v[valueHeader:])
}

// DecodeValue checks v and returns the version it holds.
func DecodeValue(v []byte, key, field int) (uint32, error) {
	if len(v) < valueHeader {
		return 0, fmt.Errorf("value of %d bytes is shorter than its header", len(v))
	}
	if got := binary.LittleEndian.Uint32(v[9:]); got != valueSum(v) {
		return 0, fmt.Errorf("checksum mismatch")
	}
	if k, f := int(binary.LittleEndian.Uint32(v[0:])), int(v[4]); k != key || f != field {
		return 0, fmt.Errorf("value belongs to record %d field %d", k, f)
	}
	return binary.LittleEndian.Uint32(v[5:]), nil
}

// KeyName is the record key for index i. Fixed width keeps every key the
// same size, so space_amp does not depend on which keys exist.
func KeyName(i int) string { return fmt.Sprintf("user%08d", i) }

// FieldName is the name of field f.
func FieldName(f int) string { return fmt.Sprintf("field%d", f) }
