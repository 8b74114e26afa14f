package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBytesConversions(t *testing.T) {
	tests := []struct {
		in   Bytes
		gb   float64
		want string
	}{
		{0, 0, "0B"},
		{512, 512.0 / (1 << 30), "512B"},
		{KB, 1.0 / (1 << 20), "1.00KB"},
		{10 * MB, 10.0 / 1024, "10.00MB"},
		{GB, 1, "1.00GB"},
		{5*GB + 512*MB, 5.5, "5.50GB"},
		{2 * TB, 2048, "2.00TB"},
	}
	for _, tt := range tests {
		if got := tt.in.GBf(); math.Abs(got-tt.gb) > 1e-12 {
			t.Errorf("(%d).GBf() = %v, want %v", tt.in, got, tt.gb)
		}
		if got := tt.in.String(); got != tt.want {
			t.Errorf("(%d).String() = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestFromGBRoundTrip(t *testing.T) {
	f := func(gb16 uint16) bool {
		gb := float64(gb16) / 128 // 0 .. 512 GB in 1/128 steps
		return math.Abs(FromGB(gb).GBf()-gb) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromMBRoundTrip(t *testing.T) {
	f := func(mb16 uint16) bool {
		mb := float64(mb16) / 4
		return math.Abs(float64(FromMB(mb))/float64(MB)-mb) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNegativeBytesString(t *testing.T) {
	if got := (-3 * GB).String(); got != "-3.00GB" {
		t.Errorf("negative size = %q, want -3.00GB", got)
	}
}

func TestGBSeconds(t *testing.T) {
	g := GBSeconds(2048)
	if got := g.TBSeconds(); got != 2 {
		t.Errorf("TBSeconds = %v, want 2", got)
	}
	if got := g.String(); got != "2.000 TB·s" {
		t.Errorf("String = %q", got)
	}
}

func TestSecondsAndDollarsString(t *testing.T) {
	if got := Seconds(12.34).String(); got != "12.3s" {
		t.Errorf("Seconds.String = %q", got)
	}
	if got := Dollars(1.5).String(); got != "$1.5000" {
		t.Errorf("Dollars.String = %q", got)
	}
}

func TestUSDAliasAndMicrodollars(t *testing.T) {
	var d Dollars = 2.5
	var u USD = d // alias: assignable without conversion
	if u.String() != "$2.5000" {
		t.Errorf("USD.String = %q", u.String())
	}
	tests := []struct {
		in   USD
		want int64
	}{
		{0, 0},
		{1, 1_000_000},
		{0.0000015, 1},
		{12.3456789, 12_345_678},
	}
	for _, tt := range tests {
		if got := tt.in.Microdollars(); got != tt.want {
			t.Errorf("(%v).Microdollars() = %d, want %d", float64(tt.in), got, tt.want)
		}
	}
}

func TestUSDPerHourOver(t *testing.T) {
	r := USDPerHour(3.6)
	if got := r.Over(1000); math.Abs(float64(got)-1.0) > 1e-12 {
		t.Errorf("Over(1000s) = %v, want $1", got)
	}
	if got := r.Over(0); got != 0 {
		t.Errorf("Over(0) = %v, want 0", got)
	}
	if got := r.String(); got != "$3.6000/hr" {
		t.Errorf("String = %q", got)
	}
}

func TestUSDPerGBSecondOver(t *testing.T) {
	r := USDPerGBSecond(1e-5)
	if got := r.Over(GBSeconds(2e5)); math.Abs(float64(got)-2.0) > 1e-12 {
		t.Errorf("Over(2e5 GB·s) = %v, want $2", got)
	}
	if got := r.String(); got != "$0.000010/GB·s" {
		t.Errorf("String = %q", got)
	}
}
