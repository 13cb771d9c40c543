package bookshelf

import (
	"testing"

	"repro/internal/gen"
)

// BenchmarkWriteAux writes the bench's large design (largeConfig: 4.9k
// cells, 30.2k lines and 774 KB in four files) as a Bookshelf benchmark.
func BenchmarkWriteAux(b *testing.B) {
	d := designOf(gen.Generate(largeConfig()))
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WriteAux(dir, "large", d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadAux reads the files BenchmarkWriteAux writes.
func BenchmarkReadAux(b *testing.B) {
	aux, err := WriteAux(b.TempDir(), "large", designOf(gen.Generate(largeConfig())))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadAux(aux); err != nil {
			b.Fatal(err)
		}
	}
}
