package reliability

import (
	"reflect"
	"testing"
	"unsafe"

	"arcc/internal/faultmodel"
)

// TestArrivalLayout pins the faultmodel.Arrival layout pageSeriesAVX512
// reads raw: 32 bytes per arrival, AtHours a float64 at offset 0 and
// Type an 8-byte integer at offset 8.
func TestArrivalLayout(t *testing.T) {
	var a faultmodel.Arrival
	if size := unsafe.Sizeof(a); size != 32 {
		t.Fatalf("Arrival is %d bytes, want 32", size)
	}
	if off := unsafe.Offsetof(a.AtHours); off != 0 || reflect.TypeOf(a.AtHours).Kind() != reflect.Float64 {
		t.Fatalf("AtHours at offset %d, kind %v; want a float64 at 0", off, reflect.TypeOf(a.AtHours).Kind())
	}
	if off := unsafe.Offsetof(a.Type); off != 8 || unsafe.Sizeof(a.Type) != 8 || reflect.TypeOf(a.Type).Kind() != reflect.Int {
		t.Fatalf("Type at offset %d, %d bytes, kind %v; want an 8-byte int at 8", off, unsafe.Sizeof(a.Type), reflect.TypeOf(a.Type).Kind())
	}
}
