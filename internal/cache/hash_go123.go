//go:build !go1.24

package cache

import (
	"hash/maphash"
	"math"
	"reflect"
)

// comparableHash hashes a key other than a Key or a string. Before Go 1.24
// there is no maphash.Comparable, so it walks the key by reflection, which
// costs an allocation a call. The resolver's Key and string keys never come
// here; the benchmark's own key does, and it is measured on Go 1.24.
func comparableHash[K comparable](seed maphash.Seed, k K) uint64 {
	var h maphash.Hash
	h.SetSeed(seed)
	writeValue(&h, reflect.ValueOf(&k).Elem())
	return h.Sum64()
}

// writeValue feeds v to h so that values == calls equal hash alike.
func writeValue(h *maphash.Hash, v reflect.Value) {
	var n uint64
	switch v.Kind() {
	case reflect.String:
		h.WriteString(v.String())
		return
	case reflect.Struct:
		for i := range v.NumField() {
			writeValue(h, v.Field(i))
		}
		return
	case reflect.Array:
		for i := range v.Len() {
			writeValue(h, v.Index(i))
		}
		return
	case reflect.Interface:
		if !v.IsNil() {
			writeValue(h, v.Elem())
		}
		return
	case reflect.Bool:
		if v.Bool() {
			n = 1
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n = uint64(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		n = v.Uint()
	case reflect.Float32, reflect.Float64:
		if f := v.Float(); f != 0 { // -0 == +0
			n = math.Float64bits(f)
		}
	case reflect.Complex64, reflect.Complex128:
		c := v.Complex()
		if real(c) != 0 {
			n = math.Float64bits(real(c))
		}
		if imag(c) != 0 {
			n ^= math.Float64bits(imag(c)) * 31
		}
	default: // pointers, channels
		n = uint64(v.Pointer())
	}
	var b [8]byte
	for i := range b {
		b[i] = byte(n >> (8 * i))
	}
	h.Write(b[:])
}
