package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
)

// fingerprints holds the committed per-cell outputs: workload → seed →
// cell → field → value, with every float stored as its Float64bits hex.
// The simulator is deterministic, so a change that only speeds it up
// leaves every field bit-identical. Regenerate with -record.
//
//go:embed fingerprints.json
var fingerprintsJSON []byte

type fingerprintSet map[string]map[string]map[string]map[string]string

func loadFingerprints() (fingerprintSet, error) {
	fp := fingerprintSet{}
	if err := json.Unmarshal(fingerprintsJSON, &fp); err != nil {
		return nil, fmt.Errorf("perfbench: fingerprints.json: %w", err)
	}
	return fp, nil
}

// flatten renders every exported field of a result struct, nested
// structs and arrays included, as name → exact text: integers in
// decimal, floats as Float64bits hex, so equal text means bit-equal.
func flatten(v any) map[string]string {
	out := map[string]string{}
	flattenValue("", reflect.ValueOf(v), out)
	return out
}

func flattenValue(prefix string, v reflect.Value, out map[string]string) {
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if !t.Field(i).IsExported() {
				continue
			}
			flattenValue(join(prefix, t.Field(i).Name), v.Field(i), out)
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			flattenValue(join(prefix, strconv.Itoa(i)), v.Index(i), out)
		}
	case reflect.Float32, reflect.Float64:
		out[prefix] = fmt.Sprintf("%016x", math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		out[prefix] = strconv.FormatInt(v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		out[prefix] = strconv.FormatUint(v.Uint(), 10)
	case reflect.Bool:
		out[prefix] = strconv.FormatBool(v.Bool())
	case reflect.String:
		out[prefix] = v.String()
	default:
		out[prefix] = fmt.Sprint(v.Interface())
	}
}

func join(prefix, name string) string {
	if prefix == "" {
		return name
	}
	return prefix + "." + name
}

// checker decides whether each cell's output is correct: against the
// committed fingerprint when the seed has one, by invariants otherwise,
// and always against the first pass of the same run (determinism).
type checker struct {
	want  map[string]map[string]string // cell → committed fields; nil: none
	first map[string]map[string]string // cell → fields of the first pass
}

func newChecker(fp fingerprintSet, workload string, seed int64) *checker {
	return &checker{
		want:  fp[workload][strconv.FormatInt(seed, 10)],
		first: map[string]map[string]string{},
	}
}

// check returns nil when the cell passes, or the reason it failed.
func (c *checker) check(o cellOutcome) error {
	if o.err != nil {
		return o.err
	}
	if prev, ok := c.first[o.name]; ok {
		if err := sameFields(prev, o.fields, false); err != nil {
			return fmt.Errorf("differs from this run's first pass: %v", err)
		}
	} else {
		c.first[o.name] = o.fields
	}
	if c.want != nil {
		want, ok := c.want[o.name]
		if !ok {
			return fmt.Errorf("no committed fingerprint for cell %s", o.name)
		}
		return sameFields(want, o.fields, true)
	}
	return invariants(o)
}

// sameFields compares every field of want with got. Fields got has
// beyond want (a result type that grew) are ignored when onlyWant is
// set, so adding a counter does not fail old fingerprints.
func sameFields(want, got map[string]string, onlyWant bool) error {
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			return fmt.Errorf("field %s: got %q, want %q", k, g, v)
		}
	}
	if !onlyWant && len(got) != len(want) {
		return fmt.Errorf("field count %d, want %d", len(got), len(want))
	}
	return nil
}

// invariants checks a cell of a seed without a committed fingerprint:
// the run completed what it was asked to and conserved packets.
func invariants(o cellOutcome) error {
	if o.err != nil {
		return o.err
	}
	if o.figure {
		if got := o.fields["Reps"]; got != strconv.Itoa(o.want) {
			return fmt.Errorf("reps %s, want %d", got, o.want)
		}
		for i := 0; i < 5; i++ {
			bits, err := strconv.ParseUint(o.fields["Means."+strconv.Itoa(i)], 16, 64)
			if err != nil || math.IsNaN(math.Float64frombits(bits)) {
				return fmt.Errorf("mean %d is not a number", i)
			}
		}
		return nil
	}
	r := o.res
	switch {
	case r.Saturated && !o.saturable:
		return fmt.Errorf("saturated")
	case r.Completed != o.want && !r.Saturated:
		return fmt.Errorf("completed %d jobs, want %d", r.Completed, o.want)
	case r.PacketsDelivered+r.PacketsLost > r.PacketsSent:
		return fmt.Errorf("delivered %d + lost %d exceed sent %d", r.PacketsDelivered, r.PacketsLost, r.PacketsSent)
	}
	return nil
}
